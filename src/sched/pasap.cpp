#include "sched/pasap.h"

#include <algorithm>
#include <optional>

#include "power/tracker.h"
#include "sched/mobility.h"
#include "support/errors.h"
#include "support/kernels.h"
#include "support/strings.h"

namespace phls {

namespace {

// The seed-era reference passes, selected by kernel_knobs().skip_probe =
// false: per-call vectors and schedule, the critical-path ready list and
// the linear `++offset` probe over fits().  window_engine (mobility.h)
// gives the same schedules and diagnostics.

struct core_inputs {
    const graph& g;
    const module_library& lib;
    const module_assignment& assignment;
    double max_power;
    pasap_order order;
    const std::vector<int>& fixed; // -1 = free; empty = nothing fixed
    const std::vector<node_id>* topo; // g.topo_order(), or null to compute
};

pasap_result run_core(const core_inputs& in)
{
    const int n = in.g.node_count();
    check(static_cast<int>(in.assignment.size()) == n, "assignment size does not match graph");
    check(in.fixed.empty() || static_cast<int>(in.fixed.size()) == n,
          "fixed_starts size does not match graph");

    pasap_result result;
    result.sched = schedule(n);
    for (node_id v : in.g.node_ids()) result.sched.set_module(v, in.assignment[v.index()]);

    std::vector<int> delay(static_cast<std::size_t>(n));
    std::vector<double> power(static_cast<std::size_t>(n));
    long total_delay = 0;
    const cap_test cap(in.max_power);
    for (node_id v : in.g.node_ids()) {
        const fu_module& m = in.lib.module(in.assignment[v.index()]);
        if (!m.supports(in.g.kind(v)))
            throw error("module '" + m.name + "' cannot execute '" + in.g.label(v) + "'");
        delay[v.index()] = m.latency;
        power[v.index()] = m.power;
        total_delay += m.latency;
        if (cap.over(m.power)) {
            result.reason = strf("operator '%s' needs %.3f power per cycle, cap is %.3f",
                                 in.g.label(v).c_str(), m.power, in.max_power);
            return result;
        }
    }

    std::vector<int> none_fixed;
    if (in.fixed.empty()) none_fixed.assign(static_cast<std::size_t>(n), -1);
    const std::vector<int>& fixed = in.fixed.empty() ? none_fixed : in.fixed;

    power_tracker tracker(in.max_power);
    std::vector<int> start(static_cast<std::size_t>(n), -1);
    int max_fixed_finish = 0;
    for (node_id v : in.g.node_ids()) {
        if (fixed[v.index()] < 0) continue;
        if (!tracker.fits(fixed[v.index()], delay[v.index()], power[v.index()])) {
            result.reason = "committed reservations exceed the power cap at operator '" +
                            in.g.label(v) + "'";
            return result;
        }
        tracker.reserve(fixed[v.index()], delay[v.index()], power[v.index()]);
        start[v.index()] = fixed[v.index()];
        result.sched.set_start(v, fixed[v.index()]);
        max_fixed_finish = std::max(max_fixed_finish, fixed[v.index()] + delay[v.index()]);
    }

    // Committed operations must already respect precedence among
    // themselves (a later module change can stretch a delay past a
    // committed successor -- that makes the commitment set invalid).
    for (node_id v : in.g.node_ids()) {
        if (fixed[v.index()] < 0) continue;
        for (node_id s : in.g.succs(v)) {
            if (fixed[s.index()] < 0) continue;
            if (fixed[v.index()] + delay[v.index()] > fixed[s.index()]) {
                result.reason = strf(
                    "committed operator '%s' (finish %d) overlaps committed successor "
                    "'%s' (start %d)",
                    in.g.label(v).c_str(), fixed[v.index()] + delay[v.index()],
                    in.g.label(s).c_str(), fixed[s.index()]);
                return result;
            }
        }
    }

    const long horizon = total_delay + max_fixed_finish + n + 2;

    // Priority: longest delay-weighted path to any sink (used in
    // critical_path order; also a useful diagnostic).
    std::vector<long> priority(static_cast<std::size_t>(n), 0);
    std::vector<node_id> local_topo;
    if (in.topo == nullptr) local_topo = in.g.topo_order();
    const std::vector<node_id>& topo = in.topo ? *in.topo : local_topo;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const node_id v = *it;
        long below = 0;
        for (node_id s : in.g.succs(v)) below = std::max(below, priority[s.index()]);
        priority[v.index()] = below + delay[v.index()];
    }

    // Places one operator: earliest data-ready time + smallest offset at
    // which the whole execution interval has power available (paper
    // step 3).  Returns false and sets `reason` on heuristic failure.
    const auto place = [&](node_id v) -> bool {
        int ready = 0;
        for (node_id p : in.g.preds(v))
            ready = std::max(ready, start[p.index()] + delay[p.index()]);
        int offset = 0;
        while (!tracker.fits(ready + offset, delay[v.index()], power[v.index()])) {
            ++offset;
            if (ready + offset > horizon) {
                result.reason = "internal: no power-feasible slot below horizon for '" +
                                in.g.label(v) + "'";
                return false;
            }
        }
        const int t = ready + offset;
        tracker.reserve(t, delay[v.index()], power[v.index()]);
        start[v.index()] = t;
        result.sched.set_start(v, t);
        // A committed (fixed) successor that would now start before this
        // operator finishes makes the partial schedule invalid -- the
        // paper's "deletion of unscheduled operators" event.
        for (node_id s : in.g.succs(v)) {
            if (fixed[s.index()] >= 0 && t + delay[v.index()] > fixed[s.index()]) {
                result.reason = strf(
                    "operator '%s' finishes at %d, after committed successor '%s' starts (%d)",
                    in.g.label(v).c_str(), t + delay[v.index()], in.g.label(s).c_str(),
                    fixed[s.index()]);
                return false;
            }
        }
        return true;
    };

    if (in.order == pasap_order::topological) {
        for (node_id v : topo) {
            if (fixed[v.index()] >= 0) continue;
            if (!place(v)) return result;
        }
    } else {
        // critical_path: among data-ready operators, place the one with
        // the longest path to a sink first.
        std::vector<int> unscheduled_preds(static_cast<std::size_t>(n), 0);
        for (node_id v : in.g.node_ids())
            for (node_id p : in.g.preds(v))
                if (start[p.index()] < 0) ++unscheduled_preds[v.index()];
        std::vector<node_id> ready;
        for (node_id v : in.g.node_ids())
            if (start[v.index()] < 0 && unscheduled_preds[v.index()] == 0) ready.push_back(v);
        while (!ready.empty()) {
            std::size_t best = 0;
            for (std::size_t i = 1; i < ready.size(); ++i) {
                const node_id a = ready[i], b = ready[best];
                if (priority[a.index()] > priority[b.index()] ||
                    (priority[a.index()] == priority[b.index()] && a < b))
                    best = i;
            }
            const node_id v = ready[best];
            ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));
            if (!place(v)) return result;
            for (node_id s : in.g.succs(v)) {
                if (start[s.index()] >= 0) continue; // fixed ops are pre-scheduled
                if (--unscheduled_preds[s.index()] == 0) ready.push_back(s);
            }
        }
    }

    for (node_id v : in.g.node_ids()) {
        if (start[v.index()] < 0) {
            result.reason = "internal: operator '" + in.g.label(v) + "' was never scheduled";
            return result;
        }
    }
    result.feasible = true;
    return result;
}

} // namespace

graph reversed_graph(const graph& g)
{
    graph r(g.name() + "_rev");
    for (node_id v : g.node_ids()) r.add_node(g.kind(v), g.label(v));
    for (node_id v : g.node_ids())
        for (node_id s : g.succs(v)) r.add_edge(s, v);
    return r;
}

pasap_result pasap(const graph& g, const module_library& lib,
                   const module_assignment& assignment, double max_power,
                   const pasap_options& options)
{
    if (kernel_knobs().skip_probe)
        return window_engine(g, lib, options.order, options.topo, options.reversed_topo)
            .pasap(assignment, max_power, options.fixed_starts);
    return run_core({g, lib, assignment, max_power, options.order, options.fixed_starts,
                     options.topo});
}

pasap_result palap(const graph& g, const module_library& lib,
                   const module_assignment& assignment, double max_power, int latency,
                   const pasap_options& options)
{
    if (kernel_knobs().skip_probe)
        return window_engine(g, lib, options.order, options.topo, options.reversed_topo)
            .palap(assignment, max_power, latency, options.fixed_starts);
    check(latency >= 1, "palap needs a positive latency bound");
    const int n = g.node_count();
    check(static_cast<int>(assignment.size()) == n, "assignment size does not match graph");

    pasap_result result;
    result.sched = schedule(n);
    for (node_id v : g.node_ids()) result.sched.set_module(v, assignment[v.index()]);

    // Convert committed times into the reversed clock: a fixed start f of
    // an operator with delay d becomes latency - f - d.
    std::vector<int> rfixed;
    if (!options.fixed_starts.empty()) {
        check(static_cast<int>(options.fixed_starts.size()) == n,
              "fixed_starts size does not match graph");
        rfixed.assign(static_cast<std::size_t>(n), -1);
        for (node_id v : g.node_ids()) {
            const int f = options.fixed_starts[v.index()];
            if (f < 0) continue;
            const int d = lib.module(assignment[v.index()]).latency;
            if (f + d > latency) {
                result.reason = strf("committed operator '%s' (start %d, delay %d) "
                                     "exceeds the latency bound %d",
                                     g.label(v).c_str(), f, d, latency);
                return result;
            }
            rfixed[v.index()] = latency - f - d;
        }
    }

    // The reversed graph is a pure invariant of `g`; callers sweeping
    // many points pass a pre-built copy through options.reversed
    // (explore_cache keeps one per problem) instead of paying the
    // rebuild on every palap call.
    std::optional<graph> local_rev;
    if (options.reversed == nullptr) local_rev.emplace(reversed_graph(g));
    const graph& rg = options.reversed ? *options.reversed : *local_rev;
    pasap_result rres =
        run_core({rg, lib, assignment, max_power, options.order, rfixed, options.reversed_topo});
    if (!rres.feasible) {
        result.reason = "reversed pasap: " + rres.reason;
        return result;
    }

    for (node_id v : g.node_ids()) {
        const int d = lib.module(assignment[v.index()]).latency;
        const int s = latency - rres.sched.start(v) - d;
        if (s < 0) {
            result.reason = strf("operator '%s' cannot fit within latency %d under the "
                                 "power cap",
                                 g.label(v).c_str(), latency);
            return result;
        }
        result.sched.set_start(v, s);
    }
    result.feasible = true;
    return result;
}

} // namespace phls
