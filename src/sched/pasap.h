// pasap / palap: the paper's power-constrained ASAP scheduling algorithm
// and its time-reversed dual (DATE'03, section 2).
//
// The paper's pseudo-code:
//
//   Initialize: schedule source start-time to zero and initialize the
//   execution offset oi (cycles) to zero for all operators.
//   step 1: Pick an unscheduled operator vi
//   step 2: If vi has unscheduled predecessors, goto 4.
//   step 3: If there is power available in the execution time interval
//           [(ti+oi) .. (ti+oi+di)], where di is the execution delay of
//           vi and ti = max{tj+dj} for all vj -> vi, schedule operation i
//           at time ti+oi, otherwise increase oi by one.
//   step 4: If unscheduled operators, goto step 1.
//
// The pick order in step 1 is left open by the paper; we implement two
// deterministic instantiations (an ablation compares them):
//   * topological   — operators in topological rank order, each driven to
//                     completion before the next is considered;
//   * critical_path — among data-ready operators, longest path to a sink
//                     first (list-scheduling style packing), ties by id.
//
// The critical-path pick needs no ready list: it is one static order,
// every operator sorted by (priority desc, id asc), with the committed
// ones skipped.  validate_module() rejects latencies below 1, so an
// operator's priority (its delay plus the largest priority of its
// successors) is strictly larger than every successor's.  The
// highest-ranked unplaced free operator therefore has no unplaced free
// predecessor, so it is data-ready and is exactly what the ready list
// would pick.  window_engine (mobility.h) keeps that order across calls
// and re-sorts it only after a delay changed; the seed-era ready list
// remains the reference under kernel_knobs().skip_probe = false.
//
// Committed operators (already scheduled/bound by the clique partitioner)
// enter through `fixed_starts`: their power is reserved up front and they
// act as scheduled predecessors.  If a free operator cannot be placed
// early enough to satisfy a *fixed* successor, the heuristic reports
// infeasibility — this is exactly the "deletion of unscheduled operators"
// event the paper handles by backtrack-and-lock.
#pragma once

#include <string>
#include <vector>

#include "sched/schedule.h"

namespace phls {

/// Pick order for step 1 (see file comment).
enum class pasap_order { topological, critical_path };

/// Optional inputs for pasap/palap.
struct pasap_options {
    pasap_order order = pasap_order::critical_path;
    /// Per-node fixed start times (-1 = free).  Empty = all free.
    std::vector<int> fixed_starts;
    /// Optional pre-built reversed_graph() of the graph palap runs on --
    /// a pure graph invariant that the reference palap otherwise
    /// rebuilds on every call.  Non-owning; must outlive the call and
    /// must equal reversed_graph(g) exactly.  Null = compute per call.
    /// Ignored by pasap() and by window_engine, which keeps the reversed
    /// adjacency itself.
    const graph* reversed = nullptr;
    /// Optional pre-computed g.topo_order() (read by pasap) and
    /// reversed_graph(g).topo_order() (read by palap) -- pure graph
    /// invariants each call otherwise recomputes with a min-heap Kahn
    /// pass.  Non-owning; must outlive the call and must equal those
    /// orders exactly (run_clique_partitioning hoists them for its
    /// reference passes).  Null = compute per call.
    const std::vector<node_id>* topo = nullptr;
    const std::vector<node_id>* reversed_topo = nullptr;
};

/// Outcome of pasap/palap.
struct pasap_result {
    bool feasible = false;
    std::string reason; ///< set when infeasible
    schedule sched;     ///< complete iff feasible
};

/// Power-constrained ASAP: minimises start times greedily subject to the
/// per-cycle power cap.  Latency is *not* bounded here; the caller
/// compares the result against its latency constraint.  Runs a one-shot
/// window_engine, or the seed-era reference pass under
/// kernel_knobs().skip_probe = false (pasap and palap alike).
pasap_result pasap(const graph& g, const module_library& lib,
                   const module_assignment& assignment, double max_power,
                   const pasap_options& options = {});

/// Power-constrained ALAP: the time-reverse of pasap anchored at
/// `latency`; maximises start times subject to the power cap.  Infeasible
/// when an operator cannot fit within [0, latency).
pasap_result palap(const graph& g, const module_library& lib,
                   const module_assignment& assignment, double max_power, int latency,
                   const pasap_options& options = {});

/// The edge-reversed copy of `g` (same nodes/kinds/labels, every edge
/// flipped) that palap schedules on.  Exposed so callers evaluating many
/// points on one graph can build it once and pass it through
/// pasap_options::reversed.
graph reversed_graph(const graph& g);

} // namespace phls
