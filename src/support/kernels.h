// Ablation knobs and region timers for the synthesis inner kernels.
//
// Three inner loops dominate a synthesis run: power-feasibility probing
// (power_tracker::next_fit), the merge loop's candidate pick
// (synth/candidates.h, a best-first frontier over equal-saving buckets
// that times a handful of combos per pick instead of enumerating them
// all) and merge rollback (the undo log in clique.cpp).  The frontier
// scores on a struct-of-arrays arena (synth/arena.h; no knob picks
// it), and the power ledger answers probes from its
// contiguous cycle slab, leaping blocked stretches with a headroom tree
// once it is long (power/tracker.h picks by ledger length; no knob
// does).  Every optimised path is gated byte-identical to the seed-era
// reference implementation it replaced; the reference paths are
// retained behind these knobs so tests and bench_kernels can compare
// results and wall time.
//
// The knobs are process-global mutable state: set them *before* starting
// any flow/batch work and leave them alone while synthesis runs (they
// are read concurrently by worker threads, never written by the
// library).  Results are byte-identical in every combination -- only
// wall time and the kernel timers change.
#pragma once

namespace phls {

/// Selects the optimised or the reference implementation per kernel.
struct kernel_tuning {
    /// The window engine and power_tracker::next_fit skip-ahead probing:
    /// pasap(), palap() and power_windows() run a window_engine
    /// (sched/mobility.h; the clique partitioner keeps one per
    /// partitioning), which places free operators with next_fit, and the
    /// compatibility graph's find_slot probes with next_fit too (slab
    /// window scans that step over blocked cycles on ledgers of at most
    /// power_tracker::slab_probe_cycles and leap them with a headroom
    /// tree past that).  Off = the whole seed-era pasap/palap (per-call
    /// vectors and schedule, the critical-path ready list, the linear
    /// `++offset` probe) and find_slot's linear `++t` probe, the oracles
    /// both are gated against.
    bool skip_probe = true;
    /// The best-first candidate frontier (synth/candidates.h): each pick
    /// walks the current state's equal-saving buckets and times only the
    /// combos whose bound beats the winner.  Off = full
    /// enumerate_candidates() per iteration.
    bool incremental_candidates = true;
    /// O(changes) undo-log rollback of a failed merge decision.  Off =
    /// the full `partition_state` deep copy per attempt.
    bool undo_log = true;
    /// No longer changes any computation: the candidate frontier always
    /// scores on the struct-of-arrays arena (synth/arena.h), and the
    /// reference enumeration and cross_check always run the per-node
    /// folds.  Kept so existing callers that assign it still compile;
    /// every value gives the same results and the same work.
    bool soa_arena = true;
    /// No longer changes any computation: power_tracker always scans its
    /// contiguous slab and descends its trees iteratively, and reads no
    /// knob.  Kept so existing callers that assign it still compile;
    /// every value gives the same results and the same work.
    bool dense_power = true;
    /// No longer changes any computation: a frontier pick reaches a
    /// handful of combos (4.4 on average on 100-op random DAGs) and
    /// nothing fans out.  Kept so existing callers that assign it still
    /// compile; every value gives the same results and the same work.
    int intra_threads = 1;
    /// Debug/testing: with incremental_candidates on, ALSO run the
    /// reference enumeration after every pick and throw phls::error if
    /// it would pick a different candidate.  Slow; tests only.
    bool cross_check = false;
};

/// The process-global knob block (defaults: everything optimised).
kernel_tuning& kernel_knobs();

/// Wall-time accumulators for the kernel regions inside the merge loop,
/// filled only while `collect` is true.  Single-threaded use only (the
/// bench drives one partitioning at a time); reset() between runs.
/// run_clique_partitioning samples `collect` ONCE per synthesis run --
/// flipping it while a run is in flight affects the next run, and the
/// disabled-timing path costs exactly one branch per region.
struct kernel_timers {
    bool collect = false;
    long long candidates_ns = 0; ///< enumeration / frontier build + pick
    long long rollback_ns = 0;   ///< state capture + restore (both paths)
    void reset() { candidates_ns = rollback_ns = 0; }
};

/// The process-global timer block.
kernel_timers& kernel_timing();

} // namespace phls
