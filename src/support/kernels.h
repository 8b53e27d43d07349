// Ablation knobs and region timers for the synthesis inner kernels.
//
// PR 5 optimised three inner loops -- power-feasibility probing
// (power_tracker::next_fit), candidate enumeration across merge-loop
// iterations (synth/candidates.h) and merge rollback (the undo log in
// clique.cpp).  PR 8 rearchitected the candidate hot path around a
// struct-of-arrays arena (synth/arena.h): CSR adjacency, per-kind node
// buckets and O(1) per-node clamp bounds replace the per-combo pointer
// chases, the power ledger answers probes from contiguous cycle slabs
// with branch-free tree descents, and candidate scoring can fan out
// over intra-point worker threads with a fixed application order.
// Every optimised path is gated byte-identical to the reference
// implementation it replaced; the reference paths are retained behind
// these knobs so tests and bench_kernels can compare results and wall
// time.
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
    /// power_tracker::next_fit skip-ahead probing in pasap and in the
    /// compatibility graph's find_slot.  Off = the seed-era linear
    /// `++offset` / `++t` probes.
    bool skip_probe = true;
    /// Incremental candidate maintenance across merge-loop iterations
    /// (synth/candidates.h).  Off = full enumerate_candidates() per
    /// iteration.
    bool incremental_candidates = true;
    /// O(changes) undo-log rollback of a failed merge decision.  Off =
    /// the full `partition_state` deep copy per attempt.
    bool undo_log = true;
    /// Struct-of-arrays candidate scoring (synth/arena.h): CSR
    /// adjacency + per-kind buckets + O(1) precomputed clamp bounds and
    /// standalone areas, and a negative-saving precheck that skips the
    /// slot probes of combos the reference path times and then erases.
    /// Only takes effect together with incremental_candidates (the
    /// arena is an engine of the candidate store).  Off = the PR-5
    /// per-combo neighbour walks.
    bool soa_arena = true;
    /// Dense power-ledger queries: fits() scans the contiguous
    /// per-cycle slab directly and the headroom-tree descents run
    /// iteratively (branch-free child steps) instead of recursing.
    /// Off = the PR-5 at()-per-cycle scan and recursive descents.
    bool dense_power = true;
    /// Intra-point parallelism: candidate (re-)scoring inside ONE
    /// partitioning run fans out over this many worker threads.
    /// Scoring is pure and results are applied in the fixed sequential
    /// combo order, so every thread count produces byte-identical
    /// decisions.  1 = sequential (default); requires soa_arena +
    /// incremental_candidates to take effect.
    int intra_threads = 1;
    /// Debug/testing: with incremental_candidates on, ALSO run the
    /// reference enumeration every iteration and throw phls::error if
    /// the two paths would pick different candidates.  Slow; tests only.
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
    long long candidates_ns = 0; ///< enumeration / store maintenance + pick
    long long rollback_ns = 0;   ///< state capture + restore (both paths)
    void reset() { candidates_ns = rollback_ns = 0; }
};

/// The process-global timer block.
kernel_timers& kernel_timing();

} // namespace phls
