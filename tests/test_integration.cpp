// End-to-end tests: the full synthesis pipeline on the paper benchmarks
// at the paper's latency constraints, across power caps, with every
// result checked by the independent verifier.
#include <gtest/gtest.h>

#include "cdfg/analysis.h"
#include "cdfg/benchmarks.h"
#include "flow/flow.h"
#include "synth/synthesizer.h"
#include "synth/two_step.h"
#include "synth/verify.h"
#include "sweep_util.h"

namespace phls {
namespace {

struct bench_case {
    const char* name;
    int latency;
};

class integration : public ::testing::TestWithParam<bench_case> {};

TEST_P(integration, unconstrained_power_synthesis_is_feasible_and_valid)
{
    const graph g = benchmark_by_name(GetParam().name);
    const module_library lib = table1_library();
    const synthesis_result r = synthesize(g, lib, {GetParam().latency, unbounded_power});
    ASSERT_TRUE(r.feasible) << r.reason;
    EXPECT_TRUE(verify_datapath(g, lib, r.dp, {GetParam().latency, unbounded_power},
                                synthesis_options{}.costs)
                    .empty());
    EXPECT_LE(r.dp.latency(lib), GetParam().latency);
    EXPECT_GT(r.dp.area.total(), 0.0);
}

TEST_P(integration, power_caps_are_respected_and_area_grows_as_cap_tightens)
{
    const graph g = benchmark_by_name(GetParam().name);
    const module_library lib = table1_library();
    const int T = GetParam().latency;

    const synthesis_result unconstrained = synthesize(g, lib, {T, unbounded_power});
    ASSERT_TRUE(unconstrained.feasible) << unconstrained.reason;
    const double peak0 = unconstrained.dp.peak_power(lib);

    // Sweep caps downward from the unconstrained peak; every feasible
    // design must respect its cap.
    double last_feasible_cap = -1.0;
    for (double cap : {peak0, peak0 * 0.8, peak0 * 0.6, peak0 * 0.4, peak0 * 0.25}) {
        const synthesis_result r = synthesize(g, lib, {T, cap});
        if (!r.feasible) continue;
        EXPECT_LE(r.dp.peak_power(lib), cap + power_tracker::tolerance)
            << GetParam().name << " cap " << cap;
        EXPECT_LE(r.dp.latency(lib), T);
        last_feasible_cap = cap;
    }
    // At least the peak-of-unconstrained cap must be feasible.
    EXPECT_GE(last_feasible_cap, 0.0);
}

TEST_P(integration, infeasible_below_minimum_operator_power)
{
    const graph g = benchmark_by_name(GetParam().name);
    const module_library lib = table1_library();
    // Below the cheapest module power of some used kind nothing schedules.
    const synthesis_result r = synthesize(g, lib, {GetParam().latency, 0.1});
    EXPECT_FALSE(r.feasible);
    EXPECT_FALSE(r.reason.empty());
}

INSTANTIATE_TEST_SUITE_P(paper_benchmarks, integration,
                         ::testing::Values(bench_case{"hal", 10}, bench_case{"hal", 17},
                                           bench_case{"cosine", 12}, bench_case{"cosine", 15},
                                           bench_case{"cosine", 19},
                                           bench_case{"elliptic", 22}),
                         [](const ::testing::TestParamInfo<bench_case>& info) {
                             return std::string(info.param.name) + "_T" +
                                    std::to_string(info.param.latency);
                         });

TEST(integration_extra, extension_benchmarks_synthesise_and_verify)
{
    const module_library lib = table1_library();
    for (const std::string& name : {std::string("fir16"), std::string("ar_lattice"),
                                    std::string("iir_biquad"), std::string("fft8")}) {
        const graph g = benchmark_by_name(name);
        const module_assignment fast = fastest_assignment(g, lib, unbounded_power);
        const int cp = critical_path_length(
            g, [&](node_id v) { return lib.module(fast[v.index()]).latency; });
        const int T = cp + cp / 2;
        const synthesis_result probe = synthesize(g, lib, {T, unbounded_power});
        ASSERT_TRUE(probe.feasible) << name << ": " << probe.reason;
        const double cap = 0.7 * probe.dp.peak_power(lib);
        const synthesis_result r = synthesize(g, lib, {T, cap});
        if (!r.feasible) continue; // tight cap may be genuinely infeasible
        const auto violations =
            verify_datapath(g, lib, r.dp, {T, cap}, synthesis_options{}.costs);
        EXPECT_TRUE(violations.empty()) << name << ": " << violations.front();
    }
}

TEST(integration_extra, two_step_baseline_runs_on_hal)
{
    const graph g = make_hal();
    const module_library lib = table1_library();
    const two_step_result r = two_step_synthesize(g, lib, {17, 12.0});
    ASSERT_TRUE(r.feasible) << r.reason;
    EXPECT_LE(r.peak_after, r.peak_before + power_tracker::tolerance);
}

TEST(integration_extra, power_sweep_areas_are_monotone_in_cap_on_hal)
{
    const graph g = make_hal();
    const module_library lib = table1_library();
    const flow f = flow::on(g).with_library(lib).latency(17);
    std::vector<synthesis_constraints> grid;
    for (double cap : f.power_grid(8)) grid.push_back({17, cap});
    const std::vector<flow_report> pts = explore_all(f, grid);
    ASSERT_EQ(pts.size(), grid.size());
    // Not strictly monotone (heuristic), but the loosest cap should not
    // be more expensive than the tightest feasible one.
    double tight_area = -1.0, loose_area = -1.0;
    for (const flow_report& p : pts)
        if (p.st.ok()) {
            if (tight_area < 0.0) tight_area = p.area;
            loose_area = p.area;
        }
    ASSERT_GE(tight_area, 0.0);
    EXPECT_LE(loose_area, tight_area + 1e-9);
}

} // namespace
} // namespace phls
