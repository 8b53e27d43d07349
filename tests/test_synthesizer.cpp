// Tests for the full synthesiser: constraint handling, determinism,
// statistics, options, and a property sweep over random DAGs where every
// produced datapath must pass the independent verifier.
#include <gtest/gtest.h>

#include "cdfg/analysis.h"
#include "cdfg/benchmarks.h"
#include "cdfg/random_dag.h"
#include "support/errors.h"
#include "synth/synthesizer.h"
#include "synth/verify.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

TEST(synthesizer, rejects_nonpositive_latency)
{
    EXPECT_THROW(synthesize(make_hal(), lib(), {0, 10.0}), error);
}

TEST(synthesizer, rejects_uncovered_graphs)
{
    module_library partial("p");
    partial.add(make_module("in", {op_kind::input}, 16, 1, 0.2));
    EXPECT_THROW(synthesize(make_hal(), partial, {17, 10.0}), error);
}

TEST(synthesizer, deterministic_across_runs)
{
    const graph g = make_cosine();
    const synthesis_result a = synthesize(g, lib(), {15, 25.0});
    const synthesis_result b = synthesize(g, lib(), {15, 25.0});
    ASSERT_TRUE(a.feasible && b.feasible);
    EXPECT_DOUBLE_EQ(a.dp.area.total(), b.dp.area.total());
    EXPECT_EQ(a.dp.instances.size(), b.dp.instances.size());
    for (node_id v : g.nodes()) {
        EXPECT_EQ(a.dp.sched.start(v), b.dp.sched.start(v));
        EXPECT_EQ(a.dp.instance_of[v.index()], b.dp.instance_of[v.index()]);
    }
}

TEST(synthesizer, binds_every_operation_exactly_once)
{
    const synthesis_result r = synthesize(make_elliptic(), lib(), {22, 12.0});
    ASSERT_TRUE(r.feasible) << r.reason;
    std::vector<int> seen(static_cast<std::size_t>(r.dp.sched.node_count()), 0);
    for (const fu_instance& inst : r.dp.instances)
        for (node_id v : inst.ops) ++seen[v.index()];
    for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(synthesizer, area_breakdown_adds_up)
{
    const synthesis_result r = synthesize(make_hal(), lib(), {17, 7.0});
    ASSERT_TRUE(r.feasible);
    double fu = 0;
    for (const fu_instance& inst : r.dp.instances) fu += lib().module(inst.module).area;
    EXPECT_DOUBLE_EQ(r.dp.area.fu, fu);
    EXPECT_DOUBLE_EQ(r.dp.area.total(),
                     r.dp.area.fu + r.dp.area.registers + r.dp.area.muxes);
    EXPECT_GT(r.dp.area.registers, 0.0);
}

TEST(synthesizer, stats_reflect_the_merge_history)
{
    const synthesis_result r = synthesize(make_elliptic(), lib(), {22, 12.0});
    ASSERT_TRUE(r.feasible);
    EXPECT_GT(r.stats.merges, 0);
    EXPECT_EQ(r.stats.merges, r.stats.pair_merges + r.stats.join_merges);
    EXPECT_GT(r.stats.window_recomputes, 0);
    // Sharing must beat one-instance-per-op.
    EXPECT_LT(r.dp.instances.size(), static_cast<std::size_t>(r.dp.sched.node_count()));
}

TEST(synthesizer, infeasibility_reasons_are_informative)
{
    const synthesis_result below_power = synthesize(make_hal(), lib(), {17, 1.0});
    EXPECT_FALSE(below_power.feasible);
    EXPECT_NE(below_power.reason.find("power"), std::string::npos);

    const synthesis_result below_latency = synthesize(make_hal(), lib(), {5, 50.0});
    EXPECT_FALSE(below_latency.feasible);
    EXPECT_NE(below_latency.reason.find("latency"), std::string::npos);
}

TEST(synthesizer, lock_from_start_still_produces_valid_designs)
{
    synthesis_options opts;
    opts.lock_from_start = true;
    const synthesis_result r = synthesize(make_cosine(), lib(), {15, 25.0}, opts);
    ASSERT_TRUE(r.feasible) << r.reason;
    EXPECT_TRUE(r.stats.locked);
    EXPECT_TRUE(
        verify_datapath(make_cosine(), lib(), r.dp, {15, 25.0}, opts.costs).empty());
}

TEST(synthesizer, both_prospects_never_worse_than_either_alone)
{
    const graph g = make_cosine();
    for (double cap : {20.0, 26.0, 40.0}) {
        synthesis_options fast;
        fast.try_both_prospects = false;
        fast.policy = prospect_policy::fastest_fit;
        synthesis_options cheap = fast;
        cheap.policy = prospect_policy::cheapest_fit;
        const synthesis_result both = synthesize(g, lib(), {15, cap});
        const synthesis_result f = synthesize(g, lib(), {15, cap}, fast);
        const synthesis_result c = synthesize(g, lib(), {15, cap}, cheap);
        if (!both.feasible) {
            EXPECT_FALSE(f.feasible);
            EXPECT_FALSE(c.feasible);
            continue;
        }
        if (f.feasible) {
            EXPECT_LE(both.dp.area.total(), f.dp.area.total() + 1e-9);
        }
        if (c.feasible) {
            EXPECT_LE(both.dp.area.total(), c.dp.area.total() + 1e-9);
        }
    }
}

TEST(synthesizer, tight_caps_switch_the_multiplier_type)
{
    const graph g = make_hal();
    const synthesis_result r = synthesize(g, lib(), {17, 6.0});
    ASSERT_TRUE(r.feasible);
    for (const fu_instance& inst : r.dp.instances)
        EXPECT_NE(lib().module(inst.module).name, "mult_par");
}

TEST(synthesizer, report_mentions_instances_and_area)
{
    const graph g = make_hal();
    const synthesis_result r = synthesize(g, lib(), {17, 7.0});
    ASSERT_TRUE(r.feasible);
    const std::string report = r.dp.report(g, lib());
    EXPECT_NE(report.find("u0"), std::string::npos);
    EXPECT_NE(report.find("area:"), std::string::npos);
    EXPECT_NE(report.find("peak power"), std::string::npos);
}

TEST(synthesizer, design_name_encodes_the_constraints)
{
    const synthesis_result r = synthesize(make_hal(), lib(), {17, 7.0});
    ASSERT_TRUE(r.feasible);
    EXPECT_NE(r.dp.name.find("hal"), std::string::npos);
    EXPECT_NE(r.dp.name.find("T17"), std::string::npos);
}

// ---- Property sweep: synthesis on random DAGs must verify cleanly. ----

struct synth_case {
    std::uint64_t seed;
    double cap_scale;   // cap = scale * unconstrained peak
    int latency_margin; // T = critical path + margin
};

class synth_property : public ::testing::TestWithParam<synth_case> {};

TEST_P(synth_property, produces_verified_datapaths_or_honest_infeasibility)
{
    random_dag_params params;
    params.operations = 20;
    params.inputs = 4;
    const graph g = random_dag(params, GetParam().seed);

    const module_assignment fast = fastest_assignment(g, lib(), unbounded_power);
    const int cp = critical_path_length(
        g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });
    const int T = cp + GetParam().latency_margin;

    const synthesis_result probe = synthesize(g, lib(), {T, unbounded_power});
    ASSERT_TRUE(probe.feasible) << probe.reason;
    const double cap = GetParam().cap_scale * probe.dp.peak_power(lib());

    const synthesis_result r = synthesize(g, lib(), {T, cap});
    if (!r.feasible) {
        EXPECT_FALSE(r.reason.empty());
        return;
    }
    const std::vector<std::string> violations =
        verify_datapath(g, lib(), r.dp, {T, cap}, synthesis_options{}.costs);
    EXPECT_TRUE(violations.empty())
        << "seed " << GetParam().seed << ": " << violations.front();
    // Sharing should generally beat the trivial allocation.
    EXPECT_LE(r.dp.area.total(), probe.dp.area.total() * 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    sweeps, synth_property,
    ::testing::Values(synth_case{1, 1.0, 2}, synth_case{1, 0.6, 6}, synth_case{2, 0.8, 4},
                      synth_case{3, 0.5, 10}, synth_case{4, 0.7, 3}, synth_case{5, 0.9, 2},
                      synth_case{6, 0.4, 12}, synth_case{7, 0.6, 8}, synth_case{8, 1.2, 2},
                      synth_case{9, 0.5, 6}, synth_case{10, 0.75, 5},
                      synth_case{11, 0.65, 7}, synth_case{12, 0.55, 9},
                      synth_case{13, 0.85, 3}, synth_case{14, 0.45, 11},
                      synth_case{15, 0.7, 5}, synth_case{16, 0.95, 4},
                      synth_case{17, 0.6, 10}, synth_case{18, 0.5, 4},
                      synth_case{19, 0.8, 6}, synth_case{20, 0.35, 14}),
    [](const ::testing::TestParamInfo<synth_case>& info) {
        return "seed" + std::to_string(info.param.seed) + "_scale" +
               std::to_string(static_cast<int>(info.param.cap_scale * 100)) + "_margin" +
               std::to_string(info.param.latency_margin);
    });

} // namespace
} // namespace phls
