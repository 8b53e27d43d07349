// Two-step baseline (paper §1): first synthesise under the time
// constraint only ("a traditional time constrained schedule"), then
// reorder the schedule to reduce the power peak while keeping the
// allocation and binding fixed.  The paper's integrated algorithm is
// compared against this in experiment E5/E7: the baseline cannot change
// its FU mix, so it may fail caps the integrated method meets.
#pragma once

#include "synth/synthesizer.h"

namespace phls {

/// Outcome of the two-step flow.
struct two_step_result {
    bool feasible = false; ///< step one produced a design
    std::string reason;
    datapath dp;               ///< final (reordered) design
    double peak_before = 0.0;  ///< peak power after step one
    double peak_after = 0.0;   ///< peak power after reordering
    bool meets_power = false;  ///< peak_after <= constraints.max_power
    int moves = 0;             ///< accepted reordering moves
};

class problem_tables;

/// Runs the baseline under `constraints`; step one ignores
/// constraints.max_power, step two tries to reach it by moving operations
/// within their slack (allocation/binding unchanged).  `tables`
/// (optional) serve step one's graph invariants during batch exploration;
/// step one itself (the same cap-free problem for every cap) is re-run at
/// every point of a power sweep.  Results are byte-identical with or
/// without the tables.
two_step_result two_step_synthesize(const graph& g, const module_library& lib,
                                    const synthesis_constraints& constraints,
                                    const synthesis_options& options = {},
                                    const problem_tables* tables = nullptr);

/// Step two alone: greedy peak-power reduction on an existing datapath by
/// retiming operations within dependency and instance-exclusivity slack.
/// Returns the number of accepted moves; mutates dp.sched (and its area,
/// which is recomputed because value lifetimes shift).
int reduce_peak_power(const graph& g, const module_library& lib, datapath& dp,
                      int latency, const cost_model& costs, int max_moves = 10000);

} // namespace phls
