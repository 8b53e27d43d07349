// Differential tests of the window layer: one warm window_engine, driven
// through a sequence of states the way the clique partitioner drives it,
// against the seed-era reference passes (kernel_knobs().skip_probe =
// false).  The states cover random DAGs with parallel edges, both pick
// orders, finite and infinite caps, mult_ser <-> mult_par swaps between
// states (so the cached delays and critical-path orders must follow) and
// committed subsets that are valid or broken in every way the passes
// report: over-cap commitments, overlapping committed pairs, commits past
// the latency bound and commits that strand a free operator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cdfg/random_dag.h"
#include "power/tracker.h"
#include "sched/mobility.h"
#include "support/errors.h"
#include "support/kernels.h"
#include "support/rng.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

/// Restores the global knobs on scope exit.
struct knob_guard {
    kernel_tuning saved = kernel_knobs();
    ~knob_guard() { kernel_knobs() = saved; }
};

kernel_tuning reference_knobs()
{
    kernel_tuning k;
    k.skip_probe = false;
    return k;
}

pasap_options with(pasap_order order, const std::vector<int>& fixed)
{
    pasap_options o;
    o.order = order;
    o.fixed_starts = fixed;
    return o;
}

/// A random DAG whose single-operand operators read their producer
/// twice (x*x): parallel edges in both adjacency directions.
graph with_parallel_edges(const random_dag_params& params, std::uint64_t seed)
{
    graph g = random_dag(params, seed);
    rng r(seed * 31 + 7);
    for (node_id v : g.node_ids())
        if (g.preds(v).size() == 1 && !is_io(g.kind(v)) && r.chance(0.5))
            g.add_edge(g.preds(v)[0], v);
    return g;
}

/// power_windows() on the seed-era reference passes.
time_windows reference_windows(const graph& g, const module_assignment& a, double cap,
                               int latency, const pasap_options& o)
{
    const knob_guard guard;
    kernel_knobs() = reference_knobs();
    return power_windows(g, lib(), a, cap, latency, o);
}

void expect_same(const time_windows& got, const time_windows& want)
{
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.reason, want.reason);
    EXPECT_EQ(got.s_min, want.s_min);
    EXPECT_EQ(got.s_max, want.s_max);
}

void expect_same(const pasap_result& got, const pasap_result& want)
{
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.reason, want.reason);
    EXPECT_EQ(got.sched.starts(), want.sched.starts());
    EXPECT_EQ(got.sched.modules(), want.sched.modules());
}

/// Caps whose limit lies in `span`, next to each of its ends.
std::vector<double> caps_inside(const cap_interval& span)
{
    std::vector<double> out;
    const double inf = std::numeric_limits<double>::infinity();
    if (std::isfinite(span.below)) {
        double c = span.below - cap_test::tolerance;
        for (int i = 0; i < 4 && cap_test(c).limit() < span.below; ++i) c = std::nextafter(c, inf);
        out.push_back(c);
    }
    if (std::isfinite(span.above)) {
        double c = span.above - cap_test::tolerance;
        for (int i = 0; i < 4 && cap_test(c).limit() >= span.above; ++i)
            c = std::nextafter(c, -inf);
        out.push_back(c);
    } else {
        out.push_back(1e9);
    }
    std::erase_if(out, [&](double c) { return !span.contains(cap_test(c).limit()); });
    return out;
}

/// One committed subset: each commitment lands at its free pasap start,
/// or, with probability `broken`, shifted or anywhere up to past the
/// bound, which breaks the state in every way the passes can report.
std::vector<int> commit_some(const graph& g, const std::vector<int>& free_starts, int latency,
                             double share, double broken, rng& r)
{
    std::vector<int> fixed(static_cast<std::size_t>(g.node_count()), -1);
    for (node_id v : g.node_ids()) {
        if (!r.chance(share)) continue;
        const int t = free_starts[v.index()];
        if (!r.chance(broken))
            fixed[v.index()] = t;
        else if (r.chance(0.5))
            fixed[v.index()] = std::max(0, t + r.uniform_int(-2, 3));
        else
            fixed[v.index()] = r.uniform_int(0, latency + 2);
    }
    return fixed;
}

/// Diagnostics the broken states must reach, by a phrase each contains.
const std::vector<std::string> failure_kinds = {
    "power per cycle",              // an operator over the cap
    "exceed the power cap",         // over-cap commitments
    "overlaps committed successor", // an overlapping committed pair
    "after committed successor",    // a stranded free operator
    "pasap schedule needs",         // a schedule past the latency bound
    "exceeds the latency bound",    // a commitment past it (one-shot palap)
};

struct case_stats {
    int states = 0;
    int feasible = 0;
    int palap_widened = 0; ///< feasible states where some s_max > s_min
    int caps_checked = 0;
    int longest_ledger = 0; ///< cycles of the longest all-free pasap schedule
    std::vector<int> failures = std::vector<int>(failure_kinds.size(), 0);

    void count(const std::string& reason)
    {
        for (std::size_t k = 0; k < failure_kinds.size(); ++k)
            if (reason.find(failure_kinds[k]) != std::string::npos) ++failures[k];
    }
};

/// Drives one warm engine on `g` through `states` states and checks
/// each against the reference.
void drive(const graph& g, pasap_order order, double cap, int states, std::uint64_t seed,
           case_stats& stats)
{
    const module_id ser = *lib().find("mult_ser");
    const module_id par = *lib().find("mult_par");
    module_assignment a = fastest_assignment(g, lib(), cap);
    if (a.empty()) a = fastest_assignment(g, lib(), unbounded_power);
    rng r(seed);
    window_engine engine(g, lib(), order);
    for (int k = 0; k < states; ++k) {
        SCOPED_TRACE("state " + std::to_string(k));
        // Swap some multipliers between their serial and parallel
        // modules: delays change, so cached orders must be re-sorted.
        // Under caps below mult_par's power, a state holds mult_par only
        // rarely, since it leaves the state infeasible.
        const bool par_fits = !cap_test(cap).over(lib().module(par).power);
        for (node_id v : g.node_ids()) {
            if (g.kind(v) != op_kind::mult) continue;
            if (!par_fits)
                a[v.index()] = r.chance(0.01) ? par : ser;
            else if (r.chance(0.3))
                a[v.index()] = a[v.index()] == ser ? par : ser;
        }
        std::vector<int> free_starts(static_cast<std::size_t>(g.node_count()), 0);
        int ledger = g.node_count();
        {
            const knob_guard guard;
            kernel_knobs() = reference_knobs();
            const pasap_result free_run = pasap(g, lib(), a, cap, with(order, {}));
            if (free_run.feasible) {
                free_starts = free_run.sched.starts();
                ledger = free_run.sched.latency(lib());
                stats.longest_ledger = std::max(stats.longest_ledger, ledger);
            }
        }
        const int latency = std::max(1, ledger + r.uniform_int(-2, 8));
        const double share = std::vector<double>{0.0, 0.25, 0.6, 0.9, 1.0}[r.uniform_int(0, 4)];
        const double broken = r.chance(0.4) ? 0.1 : 0.0;
        const std::vector<int> fixed = commit_some(g, free_starts, latency, share, broken, r);
        const pasap_options o = with(order, fixed);

        cap_interval warm_span, cold_span;
        time_windows got;
        {
            const cap_recorder rec(warm_span);
            engine.windows(a, cap, latency, fixed, got);
        }
        time_windows cold;
        {
            const cap_recorder rec(cold_span);
            cold = power_windows(g, lib(), a, cap, latency, o);
        }
        const time_windows want = reference_windows(g, a, cap, latency, o);
        expect_same(got, want);
        expect_same(cold, want);
        // A warm engine makes the cap tests a fresh one makes.
        EXPECT_EQ(warm_span.below, cold_span.below);
        EXPECT_EQ(warm_span.above, cold_span.above);
        // Every cap the span claims must give the reference's windows.
        for (const double c : caps_inside(warm_span)) {
            const time_windows there = reference_windows(g, a, c, latency, o);
            EXPECT_EQ(there.feasible, got.feasible) << "cap " << c;
            EXPECT_EQ(there.s_min, got.s_min) << "cap " << c;
            EXPECT_EQ(there.s_max, got.s_max) << "cap " << c;
            ++stats.caps_checked;
        }

        // The one-shot passes, warm and cold, against the reference.
        pasap_result ref_lo, ref_hi;
        {
            const knob_guard guard;
            kernel_knobs() = reference_knobs();
            ref_lo = pasap(g, lib(), a, cap, o);
            ref_hi = palap(g, lib(), a, cap, latency, o);
        }
        expect_same(engine.pasap(a, cap, fixed), ref_lo);
        expect_same(engine.palap(a, cap, latency, fixed), ref_hi);
        expect_same(pasap(g, lib(), a, cap, o), ref_lo);
        expect_same(palap(g, lib(), a, cap, latency, o), ref_hi);

        ++stats.states;
        stats.count(got.reason);
        stats.count(ref_hi.reason);
        if (got.feasible) {
            ++stats.feasible;
            if (got.s_max != got.s_min) ++stats.palap_widened;
        }
    }
}

TEST(window_engine, warm_engine_matches_the_reference_on_random_states)
{
    case_stats stats;
    const double inf = unbounded_power;
    const std::vector<double> caps = {inf, 16.5, 9.0, 5.3, 3.0};
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const graph g =
            with_parallel_edges({18 + 4 * static_cast<int>(seed), 4, 6, 0.35, 0.1, 0.7}, seed);
        for (const pasap_order order : {pasap_order::critical_path, pasap_order::topological})
            for (std::size_t c = 0; c < caps.size(); ++c)
                drive(g, order, caps[c], 10, seed * 977 + c, stats);
    }
    RecordProperty("states", stats.states);
    RecordProperty("feasible", stats.feasible);
    // The sequences must reach every regime, not only the easy ones.
    EXPECT_GT(stats.feasible, stats.states / 5);
    EXPECT_LT(stats.feasible, stats.states * 4 / 5);
    EXPECT_GT(stats.palap_widened, stats.states / 10);
    EXPECT_GT(stats.caps_checked, stats.states);
    for (std::size_t k = 0; k < failure_kinds.size(); ++k)
        EXPECT_GT(stats.failures[k], 0) << "no state failed with '" << failure_kinds[k] << "'";
}

TEST(window_engine, long_ledgers_take_the_tree_probe)
{
    // At cap 3 only one operator runs per cycle, so the ledger grows past
    // power_tracker::slab_probe_cycles and next_fit leaps with its trees;
    // a warm engine must rebuild them as a fresh ledger would.
    case_stats stats;
    const graph g = with_parallel_edges({150, 8, 12, 0.2, 0.05, 0.8}, 41);
    for (const pasap_order order : {pasap_order::critical_path, pasap_order::topological})
        drive(g, order, 3.0, 6, 43, stats);
    EXPECT_GT(stats.feasible, 0);
    EXPECT_GT(stats.longest_ledger, power_tracker::slab_probe_cycles);
}

TEST(window_engine, every_diagnostic_names_what_the_reference_names)
{
    // Hand-built failures on one graph, in the order the reference meets
    // them: an over-cap operator before an unusable module is reported,
    // an unusable module before an over-cap one throws.
    graph g("diag");
    const node_id i = g.add_node(op_kind::input, "i");
    const node_id m = g.add_node(op_kind::mult, "m");
    const node_id s = g.add_node(op_kind::add, "s");
    const node_id o = g.add_node(op_kind::output, "o");
    g.add_edge(i, m);
    g.add_edge(i, m);
    g.add_edge(m, s);
    g.add_edge(i, s);
    g.add_edge(s, o);
    const module_id add = *lib().find("add");
    const module_id par = *lib().find("mult_par");
    module_assignment a = fastest_assignment(g, lib(), unbounded_power);
    window_engine engine(g, lib());

    const auto both = [&](const module_assignment& x, double cap, std::vector<int> fixed) {
        std::string got, want;
        time_windows w;
        try {
            engine.windows(x, cap, 12, fixed, w);
            got = w.feasible ? "ok" : w.reason;
        } catch (const error& e) {
            got = std::string("throw: ") + e.what();
        }
        try {
            const time_windows r =
                reference_windows(g, x, cap, 12, with(pasap_order::critical_path, fixed));
            want = r.feasible ? "ok" : r.reason;
        } catch (const error& e) {
            want = std::string("throw: ") + e.what();
        }
        EXPECT_EQ(got, want);
        return got;
    };
    const std::vector<int> none;
    EXPECT_EQ(both(a, unbounded_power, none), "ok");
    module_assignment bad = a;
    bad[s.index()] = par; // mult_par cannot add
    EXPECT_EQ(both(bad, 5.0, none).rfind("pasap: operator 'm' needs", 0), 0u);
    EXPECT_EQ(both(bad, unbounded_power, none), "throw: module 'mult_par' cannot execute 's'");
    bad[s.index()] = module_id(99);
    EXPECT_EQ(both(bad, unbounded_power, none), "throw: invalid module id");
    // The engine recovers once the assignment is usable again.
    EXPECT_EQ(both(a, unbounded_power, none), "ok");
    bad = a;
    bad[m.index()] = add;
    EXPECT_EQ(both(bad, unbounded_power, none), "throw: module 'add' cannot execute 'm'");
    EXPECT_EQ(both(a, 9.0, {1, 1, -1, -1}),
              "pasap: committed operator 'i' (finish 2) overlaps committed successor 'm' "
              "(start 1)");
    EXPECT_EQ(both(a, unbounded_power, {0, -1, 1, -1}),
              "pasap: operator 'm' finishes at 3, after committed successor 's' starts (1)");
    EXPECT_EQ(both(a, 2.0, {0, -1, -1, -1}).rfind("pasap: operator 'm' needs", 0), 0u);
    // One-shot palap converts commitments before any module check.
    const std::vector<int> late{0, 2, -1, -1};
    pasap_result want;
    {
        const knob_guard guard;
        kernel_knobs() = reference_knobs();
        want = palap(g, lib(), a, unbounded_power, 3, with(pasap_order::critical_path, late));
    }
    EXPECT_EQ(want.reason, "committed operator 'm' (start 2, delay 2) exceeds the latency bound 3");
    expect_same(engine.palap(a, unbounded_power, 3, late), want);
}

} // namespace
} // namespace phls
