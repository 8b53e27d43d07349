// Tests for the paper's core algorithm: pasap (power-constrained ASAP)
// and its time-reversed dual palap, including property sweeps over
// random DAGs and the committed-operator (fixed-start) machinery the
// clique partitioner relies on.
#include <gtest/gtest.h>

#include "cdfg/benchmarks.h"
#include "cdfg/random_dag.h"
#include "power/tracker.h"
#include "sched/asap_alap.h"
#include "sched/mobility.h"
#include "sched/pasap.h"
#include "support/errors.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

TEST(pasap, unconstrained_cap_reproduces_classic_asap)
{
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    const pasap_result r = pasap(g, lib(), a, unbounded_power);
    ASSERT_TRUE(r.feasible);
    const schedule classic = asap_schedule(g, lib(), a);
    for (node_id v : g.nodes()) EXPECT_EQ(r.sched.start(v), classic.start(v)) << g.label(v);
}

TEST(pasap, respects_the_cap_and_stays_valid)
{
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    for (double cap : {30.0, 20.0, 12.0, 9.0}) {
        const pasap_result r = pasap(g, lib(), a, cap);
        ASSERT_TRUE(r.feasible) << cap;
        EXPECT_NO_THROW(validate_schedule(g, lib(), r.sched, -1, cap)) << cap;
    }
}

TEST(pasap, latency_grows_monotonically_as_the_cap_tightens)
{
    const graph g = make_cosine();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    int last = 0;
    for (double cap : {80.0, 40.0, 25.0, 18.0, 12.0}) {
        const pasap_result r = pasap(g, lib(), a, cap);
        ASSERT_TRUE(r.feasible) << cap;
        const int latency = r.sched.latency(lib());
        EXPECT_GE(latency, last) << cap;
        last = latency;
    }
}

TEST(pasap, infeasible_when_an_operator_exceeds_the_cap)
{
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    const pasap_result r = pasap(g, lib(), a, 5.0); // parallel mult needs 8.1
    EXPECT_FALSE(r.feasible);
    EXPECT_NE(r.reason.find("power"), std::string::npos);
}

TEST(pasap, both_pick_orders_produce_valid_schedules)
{
    const graph g = make_elliptic();
    const module_assignment a = fastest_assignment(g, lib(), 6.0);
    for (pasap_order order : {pasap_order::topological, pasap_order::critical_path}) {
        pasap_options opts;
        opts.order = order;
        const pasap_result r = pasap(g, lib(), a, 6.0, opts);
        ASSERT_TRUE(r.feasible);
        EXPECT_NO_THROW(validate_schedule(g, lib(), r.sched, -1, 6.0));
    }
}

TEST(pasap, fixed_operators_are_honoured)
{
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    pasap_options opts;
    opts.fixed_starts.assign(static_cast<std::size_t>(g.node_count()), -1);
    const node_id m1 = *g.find("m1");
    opts.fixed_starts[m1.index()] = 5; // delay 3*x beyond its ASAP slot
    const pasap_result r = pasap(g, lib(), a, unbounded_power, opts);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.sched.start(m1), 5);
    EXPECT_NO_THROW(validate_schedule(g, lib(), r.sched));
    // Its consumer m4 must wait for it.
    EXPECT_GE(r.sched.start(*g.find("m4")), 7);
}

TEST(pasap, fixed_reservations_count_against_the_cap)
{
    // Two independent multiplies, cap admits one at a time; fixing one at
    // cycle 1 forces the other out of [1,3).
    graph g("two_mults");
    const node_id x = g.add_node(op_kind::input, "x");
    const node_id m1 = g.add_node(op_kind::mult, "m1");
    const node_id m2 = g.add_node(op_kind::mult, "m2");
    const node_id o1 = g.add_node(op_kind::output, "o1");
    const node_id o2 = g.add_node(op_kind::output, "o2");
    g.add_edge(x, m1);
    g.add_edge(x, m2);
    g.add_edge(m1, o1);
    g.add_edge(m2, o2);
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);

    pasap_options opts;
    opts.fixed_starts.assign(5, -1);
    opts.fixed_starts[m1.index()] = 1;
    const pasap_result r = pasap(g, lib(), a, 9.0, opts); // one 8.1 mult max
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.sched.start(m1), 1);
    EXPECT_GE(r.sched.start(m2), 3);
}

TEST(pasap, detects_commitments_that_delete_a_free_operator)
{
    // Fixing the consumer so early that its producer cannot finish first
    // must be reported, not silently scheduled.
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    pasap_options opts;
    opts.fixed_starts.assign(static_cast<std::size_t>(g.node_count()), -1);
    opts.fixed_starts[g.find("m4")->index()] = 1; // m4 needs m1,m2 done first
    const pasap_result r = pasap(g, lib(), a, unbounded_power, opts);
    EXPECT_FALSE(r.feasible);
    EXPECT_FALSE(r.reason.empty());
}

TEST(pasap, detects_fixed_fixed_precedence_violations)
{
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    pasap_options opts;
    opts.fixed_starts.assign(static_cast<std::size_t>(g.node_count()), -1);
    opts.fixed_starts[g.find("m1")->index()] = 1;
    opts.fixed_starts[g.find("m4")->index()] = 2; // overlaps m1's execution
    const pasap_result r = pasap(g, lib(), a, unbounded_power, opts);
    EXPECT_FALSE(r.feasible);
    EXPECT_NE(r.reason.find("committed"), std::string::npos);
}

TEST(palap, anchors_the_schedule_at_the_latency_bound)
{
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    const pasap_result r = palap(g, lib(), a, unbounded_power, 17);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.sched.latency(lib()), 17); // some sink touches the bound
    EXPECT_NO_THROW(validate_schedule(g, lib(), r.sched, 17));
}

TEST(palap, unconstrained_matches_classic_alap)
{
    const graph g = make_elliptic();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    const pasap_result r = palap(g, lib(), a, unbounded_power, 25);
    ASSERT_TRUE(r.feasible);
    const schedule classic = alap_schedule(g, lib(), a, 25);
    ASSERT_TRUE(classic.complete());
    for (node_id v : g.nodes()) EXPECT_EQ(r.sched.start(v), classic.start(v)) << g.label(v);
}

TEST(palap, infeasible_when_the_bound_is_below_the_power_stretched_length)
{
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), 9.0);
    // Under a 9.0 cap only one parallel mult runs at a time; 8 cycles
    // cannot hold the serialised schedule.
    const pasap_result r = palap(g, lib(), a, 9.0, 8);
    EXPECT_FALSE(r.feasible);
}

TEST(palap, rejects_commitments_beyond_the_bound)
{
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    pasap_options opts;
    opts.fixed_starts.assign(static_cast<std::size_t>(g.node_count()), -1);
    opts.fixed_starts[g.find("m1")->index()] = 16; // finish 18 > 17
    const pasap_result r = palap(g, lib(), a, unbounded_power, 17, opts);
    EXPECT_FALSE(r.feasible);
    EXPECT_NE(r.reason.find("latency"), std::string::npos);
}

TEST(power_windows, pasap_times_are_a_complete_witness)
{
    const graph g = make_cosine();
    const module_assignment a = fastest_assignment(g, lib(), 20.0);
    const time_windows w = power_windows(g, lib(), a, 20.0, 18);
    ASSERT_TRUE(w.feasible) << w.reason;
    schedule s(g.node_count());
    for (node_id v : g.nodes()) {
        s.set_module(v, a[v.index()]);
        s.set_start(v, w.s_min[v.index()]);
        EXPECT_LE(w.s_min[v.index()], w.s_max[v.index()]);
    }
    EXPECT_NO_THROW(validate_schedule(g, lib(), s, 18, 20.0));
}

TEST(power_windows, infeasible_when_pasap_overruns_the_bound)
{
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), 9.0);
    const time_windows w = power_windows(g, lib(), a, 9.0, 9);
    EXPECT_FALSE(w.feasible);
    EXPECT_NE(w.reason.find("latency"), std::string::npos);
}

TEST(classic_windows, pins_collapse_and_propagate)
{
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    std::vector<int> fixed(static_cast<std::size_t>(g.node_count()), -1);
    fixed[g.find("m4")->index()] = 5;
    const time_windows w = classic_windows(g, lib(), a, 17, fixed);
    ASSERT_TRUE(w.feasible) << w.reason;
    EXPECT_EQ(w.s_min[g.find("m4")->index()], 5);
    EXPECT_EQ(w.s_max[g.find("m4")->index()], 5);
    // s1 consumes m4: cannot start before 7.
    EXPECT_GE(w.s_min[g.find("s1")->index()], 7);
}

TEST(classic_windows, inconsistent_pins_are_reported)
{
    const graph g = make_hal();
    const module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    std::vector<int> fixed(static_cast<std::size_t>(g.node_count()), -1);
    fixed[g.find("m4")->index()] = 0; // before its producers can finish
    const time_windows w = classic_windows(g, lib(), a, 17, fixed);
    EXPECT_FALSE(w.feasible);
}

// ---- Property sweep: pasap/palap on random DAGs across caps. ----

struct pasap_property_case {
    std::uint64_t seed;
    double cap;
};

void PrintTo(const pasap_property_case& c, std::ostream* os)
{
    *os << "seed " << c.seed << ", cap " << c.cap;
}

class pasap_property : public ::testing::TestWithParam<pasap_property_case> {};

TEST_P(pasap_property, produces_valid_capped_schedules_or_honest_failures)
{
    random_dag_params params;
    params.operations = 24;
    params.inputs = 4;
    const graph g = random_dag(params, GetParam().seed);
    const module_assignment a = fastest_assignment(g, lib(), GetParam().cap);
    if (a.empty()) return; // cap below the kind minimum: nothing to test

    const pasap_result lo = pasap(g, lib(), a, GetParam().cap);
    ASSERT_TRUE(lo.feasible) << lo.reason;
    EXPECT_NO_THROW(validate_schedule(g, lib(), lo.sched, -1, GetParam().cap));

    // palap with a 2x margin over pasap's length must also succeed and
    // give each op at least its pasap freedom.
    const int bound = 2 * lo.sched.latency(lib());
    const pasap_result hi = palap(g, lib(), a, GetParam().cap, bound);
    ASSERT_TRUE(hi.feasible) << hi.reason;
    EXPECT_NO_THROW(validate_schedule(g, lib(), hi.sched, bound, GetParam().cap));
}

INSTANTIATE_TEST_SUITE_P(
    sweeps, pasap_property,
    ::testing::Values(pasap_property_case{1, 9.0}, pasap_property_case{1, 15.0},
                      pasap_property_case{2, 6.0}, pasap_property_case{2, 30.0},
                      pasap_property_case{3, 9.0}, pasap_property_case{4, 12.0},
                      pasap_property_case{5, 6.0}, pasap_property_case{6, 20.0},
                      pasap_property_case{7, 9.0}, pasap_property_case{8, 8.1},
                      pasap_property_case{9, 5.2}, pasap_property_case{10, 11.0},
                      pasap_property_case{11, 7.5}, pasap_property_case{12, 25.0},
                      pasap_property_case{13, 9.0}, pasap_property_case{14, 6.0},
                      pasap_property_case{15, 16.2}, pasap_property_case{16, 10.0}),
    [](const ::testing::TestParamInfo<pasap_property_case>& info) {
        return "seed" + std::to_string(info.param.seed) + "_cap" +
               std::to_string(static_cast<int>(info.param.cap * 10));
    });

} // namespace
} // namespace phls
