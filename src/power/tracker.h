// Incremental power-availability bookkeeping for the pasap/palap
// schedulers and the clique partitioner.
//
// The tracker answers "does operation power p fit in every cycle of
// [start, start+duration) under the cap?" and records reservations so
// later queries see them.  Cycles beyond the current horizon are free.
//
// Two query paths exist:
//   * fits()     -- the reference linear scan over the interval;
//   * next_fit() -- the skip-ahead probe: the smallest feasible start at
//     or after a given cycle.  It is backed by a per-cycle headroom
//     structure (min/max segment trees over the exact per-cycle sums):
//     one max-tree descent finds the last violating cycle of the probed
//     interval, one min-tree descent leaps to the next cycle with
//     enough headroom, so a whole saturated stretch of the ledger is
//     crossed in O(log H) instead of the O(span * duration) of the
//     linear probe -- a probe costs O((runs + 1) * log H), where runs
//     counts the contiguous blocked stretches crossed.
// Both paths compare each cycle with the identical floating-point
// expression, so their placement decisions are bit-identical (the tree
// stores the exact profile values; IEEE rounding is monotone, so a
// subtree-max test equals "some cycle in the subtree violates").
#pragma once

#include <limits>
#include <vector>

#include "power/profile.h"

namespace phls {

/// Reservation ledger against a per-cycle power cap.
class power_tracker {
public:
    /// `cap` may be infinity for unconstrained tracking.
    explicit power_tracker(double cap) : cap_(cap) {}

    double cap() const { return cap_; }

    /// True if depositing `power` over [start, start+duration) keeps every
    /// cycle at or below the cap (within a small tolerance for exact
    /// decimal sums such as Table 1's).  Reference linear scan.
    bool fits(int start, int duration, double power) const;

    /// The smallest t >= start such that fits(t, duration, power), found
    /// by skipping directly past violating cycles via the headroom tree
    /// (a probe that fails at cycle c can only succeed at t > c).
    /// Returns -1 when `power` alone exceeds the cap (no t ever fits).
    /// Bit-identical to probing fits() at start, start+1, ... in turn.
    int next_fit(int start, int duration, double power) const;

    /// Records the reservation; call only after fits() (checked).
    void reserve(int start, int duration, double power);

    /// Removes a reservation previously made.  Re-subtracting can drift
    /// in the last ulp relative to the never-deposited state; rollback
    /// paths that need bit-exact unwinding should pair interval_values()
    /// with restore_interval() instead.
    void release(int start, int duration, double power);

    /// Exact per-cycle values over [start, start+duration), cycles past
    /// the horizon reading as 0.  Capture *before* reserve() to unwind it
    /// bit-exactly with restore_interval().
    std::vector<double> interval_values(int start, int duration) const;

    /// Overwrites [start, start+values.size()) with previously captured
    /// values (the headroom tree is kept in sync).  The horizon never
    /// shrinks; trailing restored zeros behave identically to
    /// never-deposited cycles.
    void restore_interval(int start, const std::vector<double>& values);

    /// Power already reserved in `cycle`.
    double used(int cycle) const { return profile_.at(cycle); }

    /// The headroom of [start, start+duration): the largest power `p`
    /// with fits(start, duration, p), i.e. cap - max per-cycle usage of
    /// the window (cycles past the horizon are free and read as 0; an
    /// empty window or an empty ledger returns the cap; an infinite cap
    /// returns infinity).  One range-max descent over the headroom tree,
    /// O(log H) -- the query the task scheduler asks per placement
    /// instead of re-deriving it from repeated next_fit probes.
    /// fits(start, duration, headroom(start, duration)) always holds.
    double headroom(int start, int duration) const;

    const power_profile& profile() const { return profile_; }

    /// Tolerance used when comparing sums against the cap.
    static constexpr double tolerance = 1e-9;

private:
    /// Re-copies profile values of [start, end) into the tree leaves and
    /// recomputes the affected internal extrema (grows the trees first
    /// when `end` passes the current leaf capacity).  No-op while the
    /// trees do not exist yet -- they are built lazily by the first
    /// next_fit() call, so trackers that only ever use the linear fits()
    /// path (the skip_probe ablation, exact's branch-and-bound churn)
    /// pay nothing for them.
    void sync_tree(int start, int end) const;

    /// Builds the trees over the whole current profile if absent.
    void ensure_tree() const;

    /// Rightmost cycle c in [lo, hi) with value(c) + power > cap + tol,
    /// or -1 when the whole range fits.  Rightmost maximises the skip.
    int last_violation(int lo, int hi, double power) const;

    /// Leftmost cycle >= from with value + power <= cap + tol (cycles at
    /// or past the leaf capacity count as free).
    int first_clean(int from, double power) const;

    double cap_;
    power_profile profile_;
    /// Lazily built headroom trees (mutable: next_fit is logically
    /// const; the trees are a cache of profile_).
    mutable std::vector<double> tree_max_; ///< 2*leaves_; [leaves_+c] = cycle c
    mutable std::vector<double> tree_min_; ///< same layout, min instead of max
    mutable int leaves_ = 0; ///< leaf capacity (power of two), 0 = absent
};

/// Convenience: an infinite cap.
inline constexpr double unbounded_power = std::numeric_limits<double>::infinity();

} // namespace phls
