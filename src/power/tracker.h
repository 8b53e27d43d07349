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
//     or after a given cycle.  Each try scans its window on the
//     contiguous per-cycle slab, right to left, and a window that
//     violates at cycle c moves the next try past c (every start up to c
//     still covers it).  While the ledger is at most slab_probe_cycles
//     long the next try is c + 1: at the 10-100-cycle ledgers of the
//     paper benchmarks and 100-op DAGs a blocked stretch is a handful of
//     cycles, and building and updating trees costs more than stepping
//     over it.  Past that length the probe leaps the whole blocked
//     stretch with one descent of a min segment tree over the exact
//     per-cycle sums, so a saturated stretch is crossed in O(log H)
//     instead of cycle by cycle; a max tree beside it answers
//     headroom().  The trees are built the first time a probe sees a
//     longer ledger (or headroom() asks for them), and a tracker keeps
//     and updates them from then on, whatever its length.
// Every path compares each cycle with the identical floating-point
// expression, so their placement decisions are bit-identical (the trees
// store the exact profile values; IEEE rounding is monotone, so a
// subtree-min test equals "some cycle in the subtree is clean").
//
// Every test of a power value against the cap -- here, in the
// schedulers and in the synthesizers -- goes through one predicate,
// cap_test::over().  While a cap_recorder is installed on the calling
// thread, the predicate also records the span of cap limits over which
// each of its answers would stay the same; that span is what lets a
// sweep serve a greedy design at many caps from one synthesis (see
// explore_cache).
#pragma once

#include <limits>
#include <vector>

#include "power/profile.h"

namespace phls {

/// The span [below, above) of cap limits over which every cap test a
/// run made answers as it did at the run's own limit: `below` is the
/// largest value a test found within the limit, `above` the smallest it
/// found over it.  A run's own limit always lies inside.
struct cap_interval {
    double below = -std::numeric_limits<double>::infinity();
    double above = std::numeric_limits<double>::infinity();

    /// True iff every recorded test answers the same against `limit`.
    bool contains(double limit) const { return below <= limit && limit < above; }
};

/// The one spelling of "over the cap": `value > Pmax + tolerance`.
///
/// A test binds the calling thread's cap_recorder (if any) when it is
/// constructed, so build it where the tests run, not ahead of time.
/// With no recorder the predicate costs one compare and a predictable
/// branch; with one, it also narrows the recorder's interval to keep
/// each answer it gave.
class cap_test {
public:
    /// Slack for exact decimal sums such as Table 1's.
    static constexpr double tolerance = 1e-9;

    /// The test against cap `cap` (may be infinity).
    explicit cap_test(double cap) : limit_(cap + tolerance), span_(recording_) {}

    /// The limit theta = cap + tolerance every test compares against.
    double limit() const { return limit_; }

    /// True iff `value` exceeds the limit.
    bool over(double value) const
    {
        const bool hit = value > limit_;
        if (span_ != nullptr) {
            if (hit) {
                if (value < span_->above) span_->above = value;
            } else if (value > span_->below) {
                span_->below = value;
            }
        }
        return hit;
    }

private:
    friend class cap_recorder;
    static inline thread_local cap_interval* recording_ = nullptr;

    double limit_;
    cap_interval* span_;
};

/// Records every cap test the calling thread makes while it is in
/// scope into `span`.  The recorder is per thread: this is sound
/// because nothing under src/synth, src/sched or src/power starts a
/// thread, so a synthesis makes all its tests on the thread that
/// installed the recorder.  A nested scope saves the previous recorder
/// and restores it on exit; the outer span does not see the inner
/// scope's tests.
class cap_recorder {
public:
    explicit cap_recorder(cap_interval& span) : previous_(cap_test::recording_)
    {
        cap_test::recording_ = &span;
    }
    ~cap_recorder() { cap_test::recording_ = previous_; }
    cap_recorder(const cap_recorder&) = delete;
    cap_recorder& operator=(const cap_recorder&) = delete;

private:
    cap_interval* previous_;
};

/// Reservation ledger against a per-cycle power cap.
class power_tracker {
public:
    /// `cap` may be infinity for unconstrained tracking.
    explicit power_tracker(double cap) : cap_(cap) {}

    double cap() const { return cap_; }

    /// Empties the ledger for a new run against `cap`, keeping its
    /// buffers: it then answers exactly like a fresh power_tracker(cap)
    /// (the trees are dropped and rebuilt by the first probe that needs
    /// them) without allocating again.
    void reset(double cap)
    {
        cap_ = cap;
        profile_.clear();
        leaves_ = 0;
    }

    /// True if depositing `power` over [start, start+duration) keeps every
    /// cycle at or below the cap (within a small tolerance for exact
    /// decimal sums such as Table 1's).  Reference linear scan.
    bool fits(int start, int duration, double power) const;

    /// The smallest t >= start such that fits(t, duration, power), found
    /// by skipping directly past violating cycles (a probe that fails at
    /// cycle c can only succeed at t > c): one cycle at a time while the
    /// ledger is short and has no trees, one min-tree leap after.
    /// Returns -1 when `power` alone exceeds the cap (no t ever fits).
    /// Bit-identical to probing fits() at start, start+1, ... in turn.
    int next_fit(int start, int duration, double power) const;

    /// Ledger length (cycles) up to which next_fit() steps over blocked
    /// cycles on the slab instead of building the headroom trees.
    /// One power_windows() call on an all-free random ALU DAG at cap
    /// 20.25 (4-thread Xeon, GCC 12, Release), slab only vs trees from
    /// the first probe: the slab is 1.13x faster at 39 cycles and 1.02x
    /// at 114 and 151; the trees are 1.05x faster at 227 and 1.21x at
    /// 1,508.
    static constexpr int slab_probe_cycles = 128;

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

    /// Tolerance used when comparing sums against the cap (cap_test's).
    static constexpr double tolerance = cap_test::tolerance;

private:
    /// Re-copies profile values of [start, end) into the tree leaves and
    /// recomputes the affected internal extrema (grows the trees first
    /// when `end` passes the current leaf capacity).  No-op while the
    /// trees do not exist yet -- they are built by the first next_fit()
    /// that sees a ledger longer than slab_probe_cycles, or by
    /// headroom(), so short ledgers and trackers that only ever use the
    /// linear fits() path (the skip_probe ablation, exact's
    /// branch-and-bound churn) pay nothing for them.
    void sync_tree(int start, int end) const;

    /// Builds the trees over the whole current profile if absent.
    void ensure_tree() const;

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
