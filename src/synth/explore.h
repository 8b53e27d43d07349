// Design-space exploration post-processing: the envelope and Pareto
// helpers behind Figure 2 and the DSE example.
//
// The sweeps themselves run through the flow engine -- build a grid with
// `flow::power_grid`, evaluate it with `dse::session::explore` (which
// streams each report through its sink), then map each flow_report to
// the sweep_point shape with `to_sweep_point` and post-process here.  The
// legacy sweep free functions were removed after one release as
// deprecated shims; see docs/FLOW_API.md for the migration.
#pragma once

#include <vector>

#include "synth/synthesizer.h"

namespace phls {

/// One synthesis run inside a sweep.
struct sweep_point {
    double cap = 0.0;      ///< Pmax used
    int latency_bound = 0; ///< T used
    bool feasible = false; ///< a design satisfying (T, Pmax) exists
    double area = 0.0;     ///< total datapath area
    double peak = 0.0;     ///< achieved peak power
    int latency = 0;       ///< achieved latency
    synthesis_stats stats; ///< heuristic counters of the run
};

/// Monotone envelope of a cap-ascending sweep: every design whose
/// *achieved* peak fits under a looser cap is also a valid solution
/// there, so each point is replaced by the smallest-area such design.
/// This reports "the best design found satisfying the constraint" and
/// makes the area curve non-increasing in the cap; the raw per-cap
/// greedy outcome stays available in the input (the greedy can genuinely
/// produce *better* designs under a mild cap than under none, because
/// power-feasible windows guide its decisions -- see EXPERIMENTS.md).
/// Empty input yields an empty envelope.
std::vector<sweep_point> monotone_envelope(const std::vector<sweep_point>& points);

/// Pareto-minimal subset of feasible points in the (peak, area) plane:
/// keeps points where no other feasible point has both a lower-or-equal
/// peak and a lower area.  Sorted by peak ascending.  Empty or
/// all-infeasible input yields an empty front.
std::vector<sweep_point> pareto_front(const std::vector<sweep_point>& points);

/// Maps one flow batch report to the sweep_point shape consumed by
/// monotone_envelope / pareto_front.
sweep_point to_sweep_point(const struct flow_report& report);

} // namespace phls
