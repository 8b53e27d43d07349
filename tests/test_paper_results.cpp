// Regression tests pinning the reproduced paper results (EXPERIMENTS.md):
// the Figure 1 shape, the Figure 2 curve properties, and the battery
// motivation, so refactoring cannot silently change the reproduction.
#include <gtest/gtest.h>

#include "battery/lifetime.h"
#include "cdfg/benchmarks.h"
#include "flow/flow.h"
#include "support/errors.h"
#include "sched/asap_alap.h"
#include "sched/pasap.h"
#include "synth/explore.h"
#include "synth/synthesizer.h"
#include "sweep_util.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

/// A power sweep through the flow engine, mapped to sweep points.
std::vector<sweep_point> sweep(const graph& g, int T, int grid_points)
{
    const flow f = flow::on(g).with_library(lib()).latency(T);
    std::vector<synthesis_constraints> grid;
    for (double cap : f.power_grid(grid_points)) grid.push_back({T, cap});
    std::vector<sweep_point> out;
    for (const flow_report& r : explore_all(f, grid)) out.push_back(to_sweep_point(r));
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
    const std::vector<sweep_point> raw = sweep(g, T, 14);
    const std::vector<sweep_point> env = monotone_envelope(raw);

    // (i) a feasibility cliff exists,
    ASSERT_FALSE(env.front().feasible);
    ASSERT_TRUE(env.back().feasible);
    // (ii) every feasible point obeys its cap,
    for (const sweep_point& p : env) {
        if (p.feasible) {
            EXPECT_LE(p.peak, p.cap + power_tracker::tolerance);
        }
    }
    // (iii) area near the cliff >= area on the plateau (the paper's
    // "trade a small amount of area to fit the power requirement").
    double cliff_area = -1, plateau_area = -1;
    for (const sweep_point& p : env)
        if (p.feasible) {
            if (cliff_area < 0) cliff_area = p.area;
            plateau_area = p.area;
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
    const auto front10 = monotone_envelope(sweep(g, 10, 14));
    const auto front17 = monotone_envelope(sweep(g, 17, 14));
    const auto min_feasible = [](const std::vector<sweep_point>& pts) {
        for (const sweep_point& p : pts)
            if (p.feasible) return p;
        throw error("no feasible point");
    };
    const sweep_point tight = min_feasible(front10);
    const sweep_point loose = min_feasible(front17);
    EXPECT_GT(tight.cap, loose.cap);   // T=10 needs more power headroom
    EXPECT_GT(tight.area, loose.area); // and costs more area
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
