// Top-level synthesis API: simultaneous scheduling, allocation and
// binding minimising area under a latency constraint T and a maximum
// power-per-clock-cycle constraint Pmax (the paper's problem statement).
#pragma once

#include <string>

#include "library/cost_model.h"
#include "power/tracker.h"
#include "sched/pasap.h"
#include "synth/datapath.h"
#include "synth/prospect.h"

namespace phls {

/// The (T, Pmax) constraint pair.
struct synthesis_constraints {
    int latency = 0;                      ///< max schedule length, cycles
    double max_power = unbounded_power;   ///< max power per clock cycle
};

/// Heuristic knobs (defaults reproduce the paper's algorithm; the
/// non-default settings exist for the ablation experiments, E5).
struct synthesis_options {
    prospect_policy policy = prospect_policy::fastest_fit;
    /// Explore both prospect policies (fastest_fit and cheapest_fit) and
    /// keep the smaller-area feasible design.  This is how the library
    /// realises the paper's "speed and energy usage of an operator can be
    /// traded versus the area" exploration; disable to study one policy
    /// (ablation E5), in which case `policy` is used alone.
    bool try_both_prospects = true;
    pasap_order order = pasap_order::critical_path;
    cost_model costs;
    /// Paper's feasibility mechanism: on a failed decision, backtrack one
    /// step and lock all unscheduled operators to the last valid pasap
    /// schedule.  When disabled, failed decisions are simply skipped.
    bool enable_backtrack_lock = true;
    /// Ablation: lock every operator to the initial pasap schedule before
    /// any binding decision (turns the method into schedule-then-bind).
    bool lock_from_start = false;
    /// Finalisation: try to rebind leftover singleton operators to the
    /// cheapest power-feasible module (e.g. serial instead of parallel
    /// multiplier) when the constraints still hold.
    bool allow_cheapest_rebind = true;
    /// Run the independent verifier on the result (throws on violation).
    bool verify_result = true;
    /// Benchmark/ablation: stop the greedy merge loop after this many
    /// attempted decisions (accepted + rejected); -1 = unlimited (the
    /// paper's algorithm).  bench_kernels uses it to compare the
    /// reference and optimised candidate kernels over an identical
    /// bounded prefix of large synthetic runs.
    int max_merge_attempts = -1;
};

/// Counters describing what the heuristic did.
struct synthesis_stats {
    int merges = 0;           ///< accepted decisions
    int pair_merges = 0;      ///< new shared instances
    int join_merges = 0;      ///< ops added to existing instances
    int rejected = 0;         ///< decisions rolled back
    int window_recomputes = 0;
    bool locked = false;      ///< backtrack-and-lock triggered
    int merges_before_lock = -1;
    int finalize_rebinds = 0; ///< singletons moved to a cheaper module
    int finalize_fallbacks = 0;
};

/// Synthesis outcome.  `feasible == false` is an expected result for
/// tight (T, Pmax) combinations; `reason` explains which stage failed.
struct synthesis_result {
    bool feasible = false;
    std::string reason;
    datapath dp;
    synthesis_stats stats;
};

class problem_tables;

/// The name synthesize() gives its design at point `c`:
/// "<graph>_T<latency>_P<cap>" (the cap as %.3g, "inf" when unbounded).
std::string design_name(const graph& g, const synthesis_constraints& c);

/// Runs the full algorithm: prospect modules -> pasap/palap windows ->
/// greedy power-aware clique partitioning with backtrack-and-lock ->
/// finalisation -> area accounting.  `tables` (optional) serve the
/// per-(graph, lib) invariants -- reachability and the prospect tables
/// -- during batch exploration; they must have been built for exactly
/// (g, lib), and the result is byte-identical with or without them.
/// When `options.try_both_prospects` resolves both policies to the same
/// module table (any cap below the point where they diverge), the second
/// synthesis run is skipped outright.
synthesis_result synthesize(const graph& g, const module_library& lib,
                            const synthesis_constraints& constraints,
                            const synthesis_options& options = {},
                            const problem_tables* tables = nullptr);

} // namespace phls
