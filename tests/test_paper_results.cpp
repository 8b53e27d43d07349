// Regression tests pinning the reproduced paper results (bench_figure1,
// bench_figure2 and bench_battery regenerate them): the Figure 1 shape,
// the Figure 2 curve properties and envelope rows, and the battery
// motivation, so refactoring cannot silently change the reproduction.
#include <gtest/gtest.h>

#include "battery/lifetime.h"
#include "cdfg/benchmarks.h"
#include "flow/flow.h"
#include "flow/pareto_stream.h"
#include "support/errors.h"
#include "support/strings.h"
#include "sched/asap_alap.h"
#include "sched/pasap.h"
#include "synth/synthesizer.h"
#include "sweep_util.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

/// A power sweep through a dse::session: the reports in grid order and
/// the session's Pareto front, which the Figure-2 envelope is read from.
struct power_sweep {
    std::vector<flow_report> reports;
    std::vector<front_point> front;

    double cap(std::size_t i) const { return reports[i].constraints.max_power; }
    /// The envelope at point i's cap (nullptr: no design fits).
    const front_point* envelope(std::size_t i) const { return best_under(front, cap(i)); }
};

power_sweep sweep(const graph& g, int T, int grid_points)
{
    const flow f = flow::on(g).with_library(lib()).latency(T);
    power_sweep out;
    out.front = dse::session(f)
                    .explore(dse::cross({T}, f.power_grid(grid_points)),
                             collector(out.reports))
                    .front;
    return out;
}

TEST(figure1, pasap_eliminates_the_spike_at_bounded_latency_cost)
{
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    const schedule asap = asap_schedule(g, lib(), a);
    const power_profile undesired = asap.profile(lib());
    const double cap = 0.55 * undesired.peak();
    ASSERT_GT(undesired.peak(), cap);

    const pasap_result r = pasap(g, lib(), a, cap);
    ASSERT_TRUE(r.feasible);
    const power_profile desired = r.sched.profile(lib());
    EXPECT_LE(desired.peak(), cap + power_tracker::tolerance);
    // Same work: energy is preserved by stretching.
    EXPECT_NEAR(desired.energy(), undesired.energy(), 1e-9);
    // The stretch is modest (the paper's sketch shows a slightly longer
    // tail, not a blow-up).
    EXPECT_LE(r.sched.latency(lib()), asap.latency(lib()) + 4);
}

struct curve_case {
    const char* bench;
    int latency;
};

// gtest has no printer for curve_case, so it labels each case with the
// struct's raw bytes, the first being the low byte of `bench`. For a string
// literal that byte is set by the link layout of the whole test binary and
// moves with unrelated changes; names in one 256-byte-aligned table keep it
// fixed. The 5-byte lead keeps "hal" at the offset its labels showed before.
struct alignas(256) bench_name_table {
    char lead[5];
    char hal[4];
    char cosine[7];
    char elliptic[9];
};
constexpr bench_name_table bench_names{{}, "hal", "cosine", "elliptic"};

class figure2 : public ::testing::TestWithParam<curve_case> {};

TEST_P(figure2, curve_has_cliff_plateau_and_cap_compliance)
{
    const graph g = benchmark_by_name(GetParam().bench);
    const int T = GetParam().latency;
    const power_sweep s = sweep(g, T, 14);
    const std::size_t n = s.reports.size();

    // (i) a feasibility cliff exists,
    ASSERT_EQ(s.envelope(0), nullptr);
    ASSERT_NE(s.envelope(n - 1), nullptr);
    // (ii) every feasible point obeys its cap,
    for (std::size_t i = 0; i < n; ++i) {
        if (const front_point* p = s.envelope(i)) {
            EXPECT_LE(p->peak, s.cap(i) + power_tracker::tolerance);
        }
    }
    // (iii) area near the cliff >= area on the plateau (the paper's
    // "trade a small amount of area to fit the power requirement").
    double cliff_area = -1, plateau_area = -1;
    for (std::size_t i = 0; i < n; ++i)
        if (const front_point* p = s.envelope(i)) {
            if (cliff_area < 0) cliff_area = p->area;
            plateau_area = p->area;
        }
    EXPECT_GE(cliff_area, plateau_area - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(curves, figure2,
                         ::testing::Values(curve_case{bench_names.hal, 10},
                                           curve_case{bench_names.hal, 17},
                                           curve_case{bench_names.cosine, 12},
                                           curve_case{bench_names.cosine, 15},
                                           curve_case{bench_names.cosine, 19},
                                           curve_case{bench_names.elliptic, 22}),
                         [](const ::testing::TestParamInfo<curve_case>& info) {
                             return std::string(info.param.bench) + "_T" +
                                    std::to_string(info.param.latency);
                         });

TEST(figure2_ordering, tighter_latency_needs_more_power_and_area)
{
    const graph g = make_hal();
    const power_sweep t10 = sweep(g, 10, 14);
    const power_sweep t17 = sweep(g, 17, 14);
    // The index of a sweep's tightest cap where a design fits.
    const auto min_feasible = [](const power_sweep& s) {
        for (std::size_t i = 0; i < s.reports.size(); ++i)
            if (s.envelope(i) != nullptr) return i;
        throw error("no feasible point");
    };
    const std::size_t tight = min_feasible(t10);
    const std::size_t loose = min_feasible(t17);
    EXPECT_GT(t10.cap(tight), t17.cap(loose)); // T=10 needs more power headroom
    EXPECT_GT(t10.envelope(tight)->area, t17.envelope(loose)->area); // and costs more area
}

// The rows `phls sweep hal -T 22 --points 23` prints (Pmax, feasible,
// peak, area, formatted as its table), each followed by the point's own
// design.  They pin the envelope's rules: a tighter cap's design answers
// at looser caps (the 5.51 design up to 7.58), a smaller area beats a
// point's own design (7.24-7.58, whose designs cost 572), and equal
// areas go to the lower peak (5.85-6.89 and 8.28-9.32, whose designs
// peak at 5.6 and 8.1).
TEST(figure2_envelope, hal_T22_rows_match_the_sweep_table)
{
    const power_sweep s = sweep(make_hal(), 22, 23);
    std::string rows;
    for (std::size_t i = 0; i < s.reports.size(); ++i) {
        const front_point* p = s.envelope(i);
        const flow_report& own = s.reports[i];
        rows += strf("%.2f %s %s %s | ", s.cap(i), p ? "yes" : "no",
                     p ? strf("%.2f", p->peak).c_str() : "-",
                     p ? strf("%.0f", p->area).c_str() : "-");
        rows += own.st.ok() ? strf("%.2f %.0f\n", own.peak, own.area) : "-\n";
    }
    EXPECT_EQ(rows, "1.70 no - - | -\n"
                    "2.05 no - - | -\n"
                    "2.39 no - - | -\n"
                    "2.74 no - - | -\n"
                    "3.08 no - - | -\n"
                    "3.43 no - - | -\n"
                    "3.78 no - - | -\n"
                    "4.12 no - - | -\n"
                    "4.47 no - - | -\n"
                    "4.82 no - - | -\n"
                    "5.16 no - - | -\n"
                    "5.51 yes 5.40 568 | 5.40 568\n"
                    "5.85 yes 5.40 568 | 5.60 568\n"
                    "6.20 yes 5.40 568 | 5.60 568\n"
                    "6.55 yes 5.40 568 | 5.60 568\n"
                    "6.89 yes 5.40 568 | 5.60 568\n"
                    "7.24 yes 5.40 568 | 6.90 572\n"
                    "7.58 yes 5.40 568 | 6.90 572\n"
                    "7.93 yes 7.90 548 | 7.90 548\n"
                    "8.28 yes 7.90 548 | 8.10 548\n"
                    "8.62 yes 7.90 548 | 8.10 548\n"
                    "8.97 yes 7.90 548 | 8.10 548\n"
                    "9.32 yes 7.90 548 | 8.10 548\n");
}

TEST(battery_motivation, rate_sensitive_cells_reward_the_power_cap)
{
    const graph g = make_hal();
    synthesis_options speed_first;
    speed_first.try_both_prospects = false;
    speed_first.policy = prospect_policy::fastest_fit;
    const synthesis_result spiky = synthesize(g, lib(), {17, unbounded_power}, speed_first);
    ASSERT_TRUE(spiky.feasible);
    const synthesis_result flat = synthesize(g, lib(), {17, 6.0});
    ASSERT_TRUE(flat.feasible);

    const load_profile lspiky = to_load(spiky.dp.sched.profile(lib()), 1.0, 0.5);
    const load_profile lflat = to_load(flat.dp.sched.profile(lib()), 1.0, 0.5);
    const double alpha = spiky.dp.sched.profile(lib()).energy() * 0.5 * 100.0;

    const double ideal_gain =
        lifetime_gain(*make_ideal_battery(alpha), lspiky, lflat);
    const double diffusion_gain =
        lifetime_gain(*make_rakhmatov_battery(alpha, 0.1), lspiky, lflat);
    EXPECT_GT(diffusion_gain, 0.0);
    EXPECT_GT(diffusion_gain, ideal_gain); // beyond the pure energy effect
}

} // namespace
} // namespace phls
