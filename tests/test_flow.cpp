// Tests for the flow engine: status type, strategy registry, the fluent
// pipeline, strategy/implementation equivalence, and the determinism and
// per-point isolation of sweeps (run through dse::session).
#include <gtest/gtest.h>

#include "cdfg/analysis.h"
#include "cdfg/benchmarks.h"
#include "cdfg/random_dag.h"
#include "flow/flow.h"
#include "rtl/netlist.h"
#include "support/errors.h"
#include "synth/two_step.h"
#include "synth/verify.h"
#include "sweep_util.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

// ------------------------------------------------------------------ status

TEST(flow_status, default_is_ok_and_codes_render)
{
    const status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_TRUE(static_cast<bool>(ok));
    EXPECT_EQ(ok.to_string(), "ok");

    const status bad = status::infeasible("no power");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.code, status_code::infeasible);
    EXPECT_EQ(bad.to_string(), "infeasible: no power");
    EXPECT_STREQ(status_code_name(status_code::unsupported), "unsupported");
    EXPECT_EQ(status::success(), status{});
}

// ---------------------------------------------------------------- registry

TEST(flow_registry, builtin_strategies_are_registered)
{
    const strategy_registry& r = strategy_registry::instance();
    for (const char* name : {"asap", "alap", "pasap", "palap", "fds"}) {
        ASSERT_NE(r.scheduler(name), nullptr) << name;
        EXPECT_EQ(r.scheduler(name)->name(), name);
    }
    for (const char* name : {"greedy", "two_step", "fds_bind", "exact"}) {
        ASSERT_NE(r.synthesizer(name), nullptr) << name;
        EXPECT_EQ(r.synthesizer(name)->name(), name);
    }
    EXPECT_EQ(r.scheduler("nope"), nullptr);
    EXPECT_EQ(r.synthesizer("nope"), nullptr);
    EXPECT_GE(r.scheduler_names().size(), 5u);
    EXPECT_GE(r.synthesizer_names().size(), 4u);
}

TEST(flow_registry, custom_strategies_plug_in_without_touching_callers)
{
    class fixed_synth final : public synth_strategy {
    public:
        std::string name() const override { return "test_fixed"; }
        std::string description() const override { return "unit-test stub"; }
        synth_outcome run(const synth_request& r) const override
        {
            synth_outcome out;
            out.st = status::infeasible("stub always declines T=" +
                                        std::to_string(r.constraints.latency));
            return out;
        }
    };
    strategy_registry::instance().add(std::make_shared<fixed_synth>());

    // An existing caller (the flow) picks it up purely by name.
    const flow_report r =
        flow::on(make_hal()).with_library(lib()).latency(17).synthesizer("test_fixed").run();
    EXPECT_EQ(r.st.code, status_code::infeasible);
    EXPECT_EQ(r.st.message, "stub always declines T=17");
}

TEST(flow_registry, replaced_strategies_outlive_their_borrowers)
{
    static bool destroyed = false;
    class doomed_synth final : public synth_strategy {
    public:
        ~doomed_synth() override { destroyed = true; }
        std::string name() const override { return "test_replaced"; }
        std::string description() const override { return "unit-test stub"; }
        synth_outcome run(const synth_request&) const override { return {}; }
    };
    strategy_registry& registry = strategy_registry::instance();
    registry.add(std::make_shared<doomed_synth>());
    // A caller holds the lent pointer, e.g. flow::run_point mid-run.
    const synth_strategy* borrowed = registry.synthesizer("test_replaced");
    ASSERT_NE(borrowed, nullptr);

    registry.add(std::make_shared<doomed_synth>());
    EXPECT_FALSE(destroyed);
    EXPECT_EQ(borrowed->name(), "test_replaced");
    EXPECT_NE(registry.synthesizer("test_replaced"), borrowed);
}

// -------------------------------------------------------------------- runs

TEST(flow_run, produces_a_verified_design_with_uniform_status)
{
    const flow_report r =
        flow::on(make_hal()).with_library(lib()).latency(17).power_cap(7.0).run();
    ASSERT_TRUE(r.st.ok()) << r.st.to_string();
    EXPECT_TRUE(r.feasible());
    EXPECT_TRUE(r.has_design);
    EXPECT_GT(r.area, 0.0);
    EXPECT_LE(r.peak, 7.0 + 1e-9);
    EXPECT_LE(r.latency, 17);
    EXPECT_EQ(r.strategy, "greedy");
    EXPECT_TRUE(
        verify_datapath(make_hal(), lib(), r.dp, r.constraints, synthesis_options{}.costs)
            .empty());
}

TEST(flow_run, expected_infeasibility_is_a_status_not_an_exception)
{
    const flow_report r =
        flow::on(make_hal()).with_library(lib()).latency(17).power_cap(1.0).run();
    EXPECT_EQ(r.st.code, status_code::infeasible);
    EXPECT_FALSE(r.has_design);
}

TEST(flow_run, invalid_requests_come_back_as_invalid_argument)
{
    // Missing latency.
    const flow_report no_latency = flow::on(make_hal()).with_library(lib()).run();
    EXPECT_EQ(no_latency.st.code, status_code::invalid_argument);

    // Library that does not cover the graph.
    const module_library empty = parse_library_string("library empty\n");
    const flow_report bad_lib =
        flow::on(make_hal()).with_library(empty).latency(17).run();
    EXPECT_EQ(bad_lib.st.code, status_code::invalid_argument);
}

TEST(flow_run, unknown_strategy_is_unsupported)
{
    const flow_report r =
        flow::on(make_hal()).with_library(lib()).latency(17).synthesizer("quantum").run();
    EXPECT_EQ(r.st.code, status_code::unsupported);
    const sched_outcome s =
        flow::on(make_hal()).with_library(lib()).scheduler("quantum").run_schedule();
    EXPECT_EQ(s.st.code, status_code::unsupported);
}

TEST(flow_run, netlist_stage_matches_direct_construction)
{
    const flow_report r = flow::on(make_hal())
                              .with_library(lib())
                              .latency(17)
                              .power_cap(7.0)
                              .emit_netlist()
                              .run();
    ASSERT_TRUE(r.st.ok());
    ASSERT_TRUE(r.has_netlist);
    const netlist direct = build_netlist(r.dp.name, make_hal(), lib(), r.dp.sched,
                                         r.dp.instance_of, r.dp.instance_modules());
    EXPECT_EQ(netlist_to_text(r.nl, make_hal(), lib()),
              netlist_to_text(direct, make_hal(), lib()));
}

TEST(flow_run, lifetime_stage_reports_a_positive_lifetime)
{
    lifetime_spec spec;
    spec.beta = 0.1;
    const flow_report r = flow::on(make_hal())
                              .with_library(lib())
                              .latency(17)
                              .power_cap(7.0)
                              .estimate_lifetime(spec)
                              .run();
    ASSERT_TRUE(r.st.ok());
    ASSERT_TRUE(r.has_lifetime);
    EXPECT_GT(r.lifetime_seconds, 0.0);
    EXPECT_GT(r.battery_alpha, 0.0);
}

TEST(flow_run, scheduler_stage_honours_the_cap)
{
    const sched_outcome out = flow::on(make_hal())
                                  .with_library(lib())
                                  .power_cap(8.0)
                                  .scheduler("pasap")
                                  .run_schedule();
    ASSERT_TRUE(out.st.ok()) << out.st.to_string();
    EXPECT_TRUE(out.sched.complete());
    EXPECT_LE(out.sched.profile(lib()).peak(), 8.0 + 1e-9);
}

TEST(flow_run, exact_strategy_marks_proven_optima)
{
    // Small graph so the branch-and-bound completes within its budget.
    random_dag_params params;
    params.operations = 6;
    params.inputs = 2;
    params.layers = 3;
    const graph g = random_dag(params, 1);
    const module_assignment fast = fastest_assignment(g, lib(), unbounded_power);
    const int cp = critical_path_length(
        g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });
    const flow_report r = flow::on(g)
                              .with_library(lib())
                              .latency(cp + 4)
                              .power_cap(20.0)
                              .synthesizer("exact")
                              .run();
    ASSERT_TRUE(r.st.ok()) << r.st.to_string();
    EXPECT_TRUE(r.optimal);
    EXPECT_NE(r.note.find("explored"), std::string::npos);

    // The greedy result for the same problem can never beat the optimum.
    const flow_report greedy =
        flow::on(g).with_library(lib()).latency(cp + 4).power_cap(20.0).run();
    if (greedy.st.ok()) {
        EXPECT_GE(greedy.area, r.area - 1e-9);
    }
}

// ------------------------------------------- strategy == implementation

TEST(flow_strategies, greedy_strategy_equals_direct_synthesize)
{
    const graph g = make_cosine();
    for (double cap : {10.0, 16.0, 26.0, unbounded_power}) {
        const synthesis_result legacy = synthesize(g, lib(), {15, cap});
        const flow_report modern =
            flow::on(g).with_library(lib()).latency(15).power_cap(cap).run();
        ASSERT_EQ(legacy.feasible, modern.st.ok()) << "cap " << cap;
        if (!legacy.feasible) continue;
        EXPECT_DOUBLE_EQ(legacy.dp.area.total(), modern.area);
        EXPECT_DOUBLE_EQ(legacy.dp.peak_power(lib()), modern.peak);
        EXPECT_EQ(legacy.dp.latency(lib()), modern.latency);
        EXPECT_EQ(legacy.dp.sched.starts(), modern.dp.sched.starts());
        EXPECT_EQ(legacy.dp.instance_of, modern.dp.instance_of);
        EXPECT_EQ(legacy.stats.merges, modern.stats.merges);
    }
}

TEST(flow_strategies, two_step_strategy_equals_direct_two_step)
{
    const graph g = make_hal();
    const two_step_result legacy = two_step_synthesize(g, lib(), {17, 9.0});
    const flow_report modern =
        flow::on(g).with_library(lib()).latency(17).power_cap(9.0).synthesizer("two_step").run();
    ASSERT_TRUE(legacy.feasible);
    ASSERT_TRUE(modern.has_design);
    EXPECT_EQ(legacy.meets_power, modern.st.ok());
    EXPECT_DOUBLE_EQ(legacy.dp.area.total(), modern.area);
    EXPECT_EQ(legacy.dp.sched.starts(), modern.dp.sched.starts());
}

// ----------------------------------------------------------------- batch

TEST(flow_batch, reports_are_byte_identical_across_thread_counts)
{
    const graph g = make_cosine();
    const flow f = flow::on(g).with_library(lib()).latency(15);
    std::vector<synthesis_constraints> grid;
    for (double cap : f.power_grid(12)) grid.push_back({15, cap});

    const std::vector<flow_report> reference = run_each(f, grid);
    ASSERT_EQ(reference.size(), grid.size());
    for (int threads : {1, 2, 4, 7, 8}) {
        const std::vector<flow_report> reports = explore_all(f, grid, threads);
        ASSERT_EQ(reports.size(), reference.size()) << threads << " threads";
        for (std::size_t i = 0; i < reports.size(); ++i)
            EXPECT_EQ(reports[i].to_string(), reference[i].to_string())
                << threads << " threads, point " << i;
    }
}

TEST(flow_batch, results_follow_input_order_not_completion_order)
{
    const graph g = make_hal();
    const flow f = flow::on(g).with_library(lib()).latency(17);
    // Mixed workloads: cheap infeasible points interleaved with real ones.
    // Each delivery carries its space index, whatever order the workers
    // finish in.
    const std::vector<synthesis_constraints> grid = {
        {17, 9.0}, {17, 1.0}, {17, 12.0}, {17, 2.0}, {17, 7.0}};
    const std::vector<flow_report> reports = explore_all(f, grid, 3);
    ASSERT_EQ(reports.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(reports[i].constraints.latency, grid[i].latency);
        EXPECT_DOUBLE_EQ(reports[i].constraints.max_power, grid[i].max_power);
    }
    EXPECT_TRUE(reports[0].st.ok());
    EXPECT_FALSE(reports[1].st.ok());
}

TEST(flow_batch, a_bad_point_is_isolated_from_the_rest)
{
    const graph g = make_hal();
    const flow f = flow::on(g).with_library(lib()).latency(17);
    // Point 1 is malformed (latency 0 overrides the configured 17).
    const std::vector<synthesis_constraints> grid = {
        {17, 9.0}, {0, 9.0}, {17, unbounded_power}};
    const std::vector<flow_report> reports = explore_all(f, grid, 2);
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_TRUE(reports[0].st.ok());
    EXPECT_EQ(reports[1].st.code, status_code::invalid_argument);
    EXPECT_TRUE(reports[2].st.ok());
}

TEST(flow_batch, empty_batch_returns_empty)
{
    dse::session session(flow::on(make_hal()).with_library(lib()).latency(17));
    std::size_t delivered = 0;
    dse::sink sk;
    sk.on_result = [&](std::size_t, const flow_report&) { ++delivered; };
    sk.on_front = [&](const front_delta&) { ++delivered; };
    const dse::explore_summary sum = session.explore(dse::list({}), sk, 4);
    EXPECT_EQ(delivered, 0u);
    EXPECT_EQ(sum.space_size, 0u);
    EXPECT_EQ(sum.evaluated, 0u);
    EXPECT_TRUE(sum.front.empty());
}

// ------------------------------------------------------------- power grid

TEST(flow_power_grid, infeasible_probe_propagates_its_diagnostic)
{
    // Latency 2 is far below hal's critical path, so even the
    // unconstrained probe is infeasible; the grid must not be fabricated
    // from magic constants — the error carries the probe's diagnostic.
    try {
        flow::on(make_hal()).with_library(lib()).latency(2).power_grid(8);
        FAIL() << "expected phls::error";
    } catch (const error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unconstrained probe failed"), std::string::npos) << what;
        EXPECT_NE(what.find("infeasible"), std::string::npos) << what;
    }
}

TEST(flow_power_grid, uncovered_library_is_reported_at_the_lower_edge)
{
    const module_library empty = parse_library_string("library empty\n");
    try {
        flow::on(make_hal()).with_library(empty).latency(17).power_grid(8);
        FAIL() << "expected phls::error";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("does not cover"), std::string::npos)
            << e.what();
    }
}

TEST(flow_power_grid, feasible_problems_still_get_a_monotone_grid)
{
    const std::vector<double> caps =
        flow::on(make_hal()).with_library(lib()).latency(17).power_grid(12);
    ASSERT_EQ(caps.size(), 12u);
    for (std::size_t i = 1; i < caps.size(); ++i) EXPECT_GT(caps[i], caps[i - 1]);
}

} // namespace
} // namespace phls
