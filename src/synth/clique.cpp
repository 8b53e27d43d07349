#include "synth/clique.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <unordered_set>

#include "cdfg/analysis.h"
#include "sched/mobility.h"
#include "support/errors.h"
#include "support/kernels.h"
#include "support/strings.h"
#include "synth/arena.h"
#include "synth/candidates.h"
#include "synth/compat.h"
#include "synth/problem_tables.h"

namespace phls {

std::string design_name(const graph& g, const synthesis_constraints& c)
{
    if (c.max_power == unbounded_power) return strf("%s_T%d_Pinf", g.name().c_str(), c.latency);
    return strf("%s_T%d_P%.3g", g.name().c_str(), c.latency, c.max_power);
}

namespace {

/// Everything the merge loop mutates, so a failed decision can roll back.
struct partition_state {
    std::vector<int> fixed;          // committed/locked start times, -1 free
    module_assignment assignment;    // current per-node module
    std::vector<char> committed;     // bound to an instance
    power_tracker committed_power;   // reservations of committed ops
    datapath dp;
    time_windows windows;

    explicit partition_state(double cap) : committed_power(cap) {}
};

/// Accumulates wall time into a kernel_timers field; pass nullptr when
/// timing is off.  The caller samples kernel_timing().collect once per
/// synthesis run (not once per region entry), so the disabled path costs
/// one pointer test and a mid-run flip affects the next run only.
class scoped_ns {
public:
    explicit scoped_ns(long long* acc) : acc_(acc)
    {
        if (acc_) t0_ = std::chrono::steady_clock::now();
    }
    ~scoped_ns()
    {
        if (acc_)
            *acc_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - t0_)
                         .count();
    }
    scoped_ns(const scoped_ns&) = delete;
    scoped_ns& operator=(const scoped_ns&) = delete;

private:
    long long* acc_;
    std::chrono::steady_clock::time_point t0_;
};

/// O(changes) rollback of one merge attempt: the exact pre-attempt value
/// of every field a commit touches, captured *before* the mutation.  The
/// power profile slice is captured by value (release() re-subtracts and
/// can drift in the last ulp; restoring the captured doubles is
/// bit-exact, so decisions after a rollback are identical to the
/// snapshot-copy reference path).
struct op_undo {
    node_id v;
    module_id assignment;
    int fixed = -1;
    char committed = 0;
    int instance_of = -1;
    int sched_start = -1;
    module_id sched_module;
    int res_start = -1;
    std::vector<double> res_values;
};

struct merge_undo {
    std::vector<op_undo> ops;
    bool added_instance = false;
};

op_undo capture_op(const partition_state& st, node_id v, int t, int duration)
{
    op_undo u;
    u.v = v;
    u.assignment = st.assignment[v.index()];
    u.fixed = st.fixed[v.index()];
    u.committed = st.committed[v.index()];
    u.instance_of = st.dp.instance_of[v.index()];
    u.sched_start = st.dp.sched.start(v);
    u.sched_module = st.dp.sched.module_of(v);
    u.res_start = t;
    u.res_values = st.committed_power.interval_values(t, duration);
    return u;
}

void unwind(partition_state& st, const merge_undo& undo)
{
    for (auto it = undo.ops.rbegin(); it != undo.ops.rend(); ++it) {
        const op_undo& u = *it;
        const int inst_now = st.dp.instance_of[u.v.index()];
        if (inst_now != u.instance_of) {
            // The op was bound during the attempt; it is the last one
            // appended to its instance.
            auto& ops = st.dp.instances[static_cast<std::size_t>(inst_now)].ops;
            check(!ops.empty() && ops.back() == u.v,
                  "undo: operation is not the last one bound to its instance");
            ops.pop_back();
            st.dp.instance_of[u.v.index()] = u.instance_of;
        }
        st.dp.sched.set_start(u.v, u.sched_start);
        st.dp.sched.set_module(u.v, u.sched_module);
        st.committed_power.restore_interval(u.res_start, u.res_values);
        st.fixed[u.v.index()] = u.fixed;
        st.assignment[u.v.index()] = u.assignment;
        st.committed[u.v.index()] = u.committed;
    }
    if (undo.added_instance) {
        check(!st.dp.instances.empty() && st.dp.instances.back().ops.empty(),
              "undo: the added instance still has bound operations");
        st.dp.instances.pop_back();
    }
}

} // namespace

synthesis_result run_clique_partitioning(const graph& g, const module_library& lib,
                                         const synthesis_constraints& constraints,
                                         const synthesis_options& options,
                                         const problem_tables* tables)
{
    const int n = g.node_count();
    const double cap = constraints.max_power;
    synthesis_result result;
    const std::string name = design_name(g, constraints);
    result.dp = datapath(name, n);
    check(constraints.latency >= 1, "latency constraint must be positive");
    // Candidate identities (the blacklist) pack node, instance and
    // module ids into fixed-width fields; oversized inputs must fail
    // loudly, never collide silently.
    check(n < (1 << packed_node_bits) && lib.size() < (1 << packed_module_bits),
          "graph or library too large for packed candidate keys");

    const kernel_tuning& knobs = kernel_knobs();
    kernel_timers& timers = kernel_timing();
    // Sampled once per run; scoped_ns takes the resolved pointer.
    long long* const candidates_acc = timers.collect ? &timers.candidates_ns : nullptr;
    long long* const rollback_acc = timers.collect ? &timers.rollback_ns : nullptr;

    // 1. Prospect modules under the power cap (one table per
    // admissible-module set when batch tables are attached).
    const prospect_result prospect =
        tables ? tables->prospect(options.policy, cap)
               : make_prospect(g, lib, options.policy, cap);
    if (!prospect.ok) {
        result.reason = prospect.reason;
        return result;
    }

    partition_state st(cap);
    st.fixed.assign(static_cast<std::size_t>(n), -1);
    st.assignment = prospect.assignment;
    st.committed.assign(static_cast<std::size_t>(n), 0);
    st.dp = datapath(name, n);

    // Every pasap/palap window computation -- the initial one and the
    // recompute after each commit -- goes through one window engine,
    // built once per partitioning.  Under knobs.skip_probe off each
    // recompute runs the seed-era reference passes instead, on a
    // reversed graph and topological orders built once here.
    std::optional<window_engine> engine;
    std::optional<graph> rev;
    std::vector<node_id> topo, rev_topo;
    if (knobs.skip_probe) {
        engine.emplace(g, lib, options.order);
    } else {
        rev.emplace(reversed_graph(g));
        topo = g.topo_order();
        rev_topo = rev->topo_order();
    }
    const auto recompute_windows = [&](const partition_state& s, time_windows& out) {
        ++result.stats.window_recomputes;
        if (engine)
            engine->windows(s.assignment, cap, constraints.latency, s.fixed, out);
        else
            out = power_windows(g, lib, s.assignment, cap, constraints.latency,
                                {options.order, s.fixed, &*rev, &topo, &rev_topo});
    };
    // The recompute after a decision lands here and is swapped in when
    // it is feasible, so both buffers are reused.
    time_windows next;

    // 2. Initial pasap/palap windows.
    recompute_windows(st, st.windows);
    if (!st.windows.feasible) {
        result.reason = st.windows.reason;
        return result;
    }

    // 3. Reachability: a pure graph invariant, computed once per batch
    // with tables instead of once per (point, policy).
    std::optional<reachability> local_reach;
    if (tables == nullptr) local_reach.emplace(g);
    const reachability& reach = tables ? tables->reach() : *local_reach;
    bool locked = false;

    candidate_store store;

    // Struct-of-arrays scoring arena: an engine of the candidate
    // frontier, synced to the scheduling state before every pick.  The
    // reference enumeration runs without it, on the per-node folds.
    std::optional<synth_arena> arena_store;
    if (knobs.incremental_candidates) {
        arena_store.emplace();
        arena_store->build(g, lib);
    }
    synth_arena* const arena = arena_store ? &*arena_store : nullptr;

    // Locks every free operator to its current pasap start time (the
    // paper's backtrack remedy); the pasap schedule itself witnesses
    // feasibility.
    const auto lock_all = [&](partition_state& s) {
        for (node_id v : g.node_ids())
            if (s.fixed[v.index()] < 0) s.fixed[v.index()] = s.windows.s_min[v.index()];
        locked = true;
        result.stats.locked = true;
        if (result.stats.merges_before_lock < 0)
            result.stats.merges_before_lock = result.stats.merges;
        recompute_windows(s, next);
        if (!next.feasible)
            throw error("internal: locking to the pasap schedule failed: " + next.reason);
        std::swap(s.windows, next);
    };

    if (options.lock_from_start) lock_all(st);

    // Commits one operation onto an instance at time t.
    const auto commit_op = [&](partition_state& s, node_id v, int inst, int t) {
        const module_id m = s.dp.instances[static_cast<std::size_t>(inst)].module;
        s.assignment[v.index()] = m;
        s.fixed[v.index()] = t;
        s.committed[v.index()] = 1;
        s.committed_power.reserve(t, lib.module(m).latency, lib.module(m).power);
        s.dp.bind(v, inst, t);
    };

    // One attempt's rollback state: an undo log of the fields the commit
    // touches (knobs.undo_log), or the reference full deep copy.  Both
    // the merge loop and the finalisation rebind go through this single
    // capture/rollback pair so the two paths cannot drift apart.
    struct rollback_point {
        merge_undo undo;
        std::optional<partition_state> snapshot;
    };
    const auto capture_state =
        [&](std::initializer_list<std::pair<node_id, int>> ops, int duration,
            bool adds_instance) {
            rollback_point rp;
            const scoped_ns timer(rollback_acc);
            if (knobs.undo_log) {
                rp.undo.ops.reserve(ops.size());
                for (const auto& [v, t] : ops)
                    rp.undo.ops.push_back(capture_op(st, v, t, duration));
                rp.undo.added_instance = adds_instance;
            } else {
                rp.snapshot.emplace(st);
            }
            return rp;
        };
    const auto rollback_state = [&](rollback_point& rp) {
        const scoped_ns timer(rollback_acc);
        if (knobs.undo_log)
            unwind(st, rp.undo);
        else
            st = std::move(*rp.snapshot);
    };

    // 4. Greedy merge loop.
    std::unordered_set<std::uint64_t> blacklist;
    while (true) {
        if (options.max_merge_attempts >= 0 &&
            result.stats.merges + result.stats.rejected >= options.max_merge_attempts)
            break;

        compat_inputs in;
        in.g = &g;
        in.lib = &lib;
        in.costs = &options.costs;
        in.reach = &reach;
        in.max_power = cap;
        in.windows = &st.windows;
        in.fixed = &st.fixed;
        in.committed = &st.committed;
        in.instances = &st.dp.instances;
        in.committed_power = &st.committed_power;
        in.assignment = &st.assignment;
        in.locked = locked;
        in.arena = arena;

        // Pick the best candidate: a best-first walk of the current
        // state's equal-saving buckets, or the reference full
        // re-enumeration.
        merge_candidate chosen;
        bool have = false;
        if (knobs.incremental_candidates) {
            const scoped_ns timer(candidates_acc);
            if (arena != nullptr) arena->sync(in);
            store.rebuild(in);
            if (const std::optional<merge_candidate> c = store.best(blacklist)) {
                chosen = *c;
                have = true;
            }
        } else {
            const scoped_ns timer(candidates_acc);
            std::vector<merge_candidate> candidates = enumerate_candidates(in);
            std::erase_if(candidates, [&](const merge_candidate& c) {
                return c.saving < 0.0 || blacklist.count(c.packed_key()) > 0;
            });
            const int bi = best_candidate(candidates);
            if (bi >= 0) {
                chosen = candidates[static_cast<std::size_t>(bi)];
                have = true;
            }
        }
        if (knobs.incremental_candidates && knobs.cross_check) {
            // Testing aid: the reference pipeline must agree with the
            // frontier, decision for decision.  The reference enumeration
            // runs with the arena detached, so cross_check genuinely
            // compares arena scoring against reference scoring.
            compat_inputs ref_in = in;
            ref_in.arena = nullptr;
            std::vector<merge_candidate> candidates = enumerate_candidates(ref_in);
            std::erase_if(candidates, [&](const merge_candidate& c) {
                return c.saving < 0.0 || blacklist.count(c.packed_key()) > 0;
            });
            const int bi = best_candidate(candidates);
            check((bi >= 0) == have,
                  "candidate frontier disagrees with the reference enumeration "
                  "about candidate existence");
            if (have) {
                const merge_candidate& ref = candidates[static_cast<std::size_t>(bi)];
                if (ref.packed_key() != chosen.packed_key() || ref.t_a != chosen.t_a ||
                    ref.t_b != chosen.t_b || ref.saving != chosen.saving)
                    throw error("candidate frontier disagrees with the reference enumeration: " +
                                ref.key() + " vs " + chosen.key());
            }
        }
        if (!have) break;

        const int chosen_delay = lib.module(chosen.module).latency;
        const bool is_pair = chosen.type == merge_candidate::merge_type::pair;
        rollback_point rp =
            is_pair ? capture_state({{chosen.a, chosen.t_a}, {chosen.b, chosen.t_b}},
                                    chosen_delay, true)
                    : capture_state({{chosen.a, chosen.t_a}}, chosen_delay, false);

        if (is_pair) {
            const int inst = st.dp.add_instance(chosen.module);
            commit_op(st, chosen.a, inst, chosen.t_a);
            commit_op(st, chosen.b, inst, chosen.t_b);
        } else {
            commit_op(st, chosen.a, chosen.instance, chosen.t_a);
        }

        recompute_windows(st, next);
        if (next.feasible) {
            std::swap(st.windows, next);
            ++result.stats.merges;
            if (is_pair)
                ++result.stats.pair_merges;
            else
                ++result.stats.join_merges;
            blacklist.clear();
            continue;
        }

        // The decision deleted an unscheduled operator: backtrack one step
        // and (first time) lock the remaining operators to the last valid
        // pasap schedule.
        rollback_state(rp);
        ++result.stats.rejected;
        if (!locked && options.enable_backtrack_lock)
            lock_all(st);
        else
            blacklist.insert(chosen.packed_key());
    }

    // 5. Finalisation: leftover operators become singleton instances.
    // First give each a chance to move to the cheapest power-feasible
    // module (validated by a full window recompute), then batch-commit
    // the rest at their pasap times, which are feasible by construction.
    for (node_id v : g.node_ids()) {
        if (st.committed[v.index()]) continue;
        if (!options.allow_cheapest_rebind) continue;
        const module_id cheap = *lib.cheapest_for(g.kind(v), cap);
        if (cheap == st.assignment[v.index()]) continue;
        const int t = st.windows.s_min[v.index()];
        rollback_point rp = capture_state({{v, t}}, lib.module(cheap).latency, true);
        const int inst = st.dp.add_instance(cheap);
        st.assignment[v.index()] = cheap;
        if (!st.committed_power.fits(t, lib.module(cheap).latency, lib.module(cheap).power)) {
            rollback_state(rp);
            ++result.stats.finalize_fallbacks;
            continue;
        }
        st.fixed[v.index()] = t;
        st.committed[v.index()] = 1;
        st.committed_power.reserve(t, lib.module(cheap).latency, lib.module(cheap).power);
        st.dp.bind(v, inst, t);
        recompute_windows(st, next);
        if (next.feasible) {
            std::swap(st.windows, next);
            ++result.stats.finalize_rebinds;
        } else {
            rollback_state(rp);
            ++result.stats.finalize_fallbacks;
        }
    }
    for (node_id v : g.node_ids()) {
        if (st.committed[v.index()]) continue;
        const int inst = st.dp.add_instance(st.assignment[v.index()]);
        st.dp.bind(v, inst, st.windows.s_min[v.index()]);
        st.committed[v.index()] = 1;
    }

    result.dp = std::move(st.dp);
    result.stats.merges_before_lock =
        result.stats.locked ? result.stats.merges_before_lock : result.stats.merges;
    result.feasible = true;
    return result;
}

} // namespace phls
