// Greedy partial clique partitioning over the power-aware compatibility
// graph (the paper's §2 synthesis loop).  Internal to synthesize(); split
// out so tests can drive the partitioner directly.
#pragma once

#include "synth/synthesizer.h"

namespace phls {

/// Runs prospect selection, window computation, the greedy merge loop
/// with backtrack-and-lock, and finalisation.  Does not compute area or
/// verify (synthesize() adds those).  `tables` (optional) serve the
/// reachability relation and the prospect table; see synthesize() for
/// the contract.
synthesis_result run_clique_partitioning(const graph& g, const module_library& lib,
                                         const synthesis_constraints& constraints,
                                         const synthesis_options& options,
                                         const problem_tables* tables = nullptr);

} // namespace phls
