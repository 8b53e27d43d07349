// Best-first merge picks for the greedy merge loop.
//
// The reference merge loop re-runs enumerate_candidates() -- every free
// op pair x module plus every (free op, instance) join, each fully
// timed and scored -- before every pick, then keeps the best by
// best_candidate()'s order: saving desc, joins before pairs, smaller
// (dependency-ordered) ops, then enumeration order.
//
// candidate_store reaches the same pick while timing only a handful of
// combos.  A combo's saving does not depend on its slot times:
//
//   pair (x, y, m):  sa(x) + sa(y) - area(m) - mux(m)
//   join (x, inst):  sa(x) - mux(module(inst))
//
// and standalone areas sa() take a few values per kind.  rebuild()
// therefore groups the free ops by (kind, standalone area) and forms
// (group, group, module) pair buckets and (group, module) join buckets,
// each sharing one exact saving.  best() walks the equal-saving levels
// from the top; inside a level one cursor per bucket yields combos in
// bound order -- joins first, then smaller id, larger id, module or
// instance index -- and each is timed with score_pair()/score_join()
// and skipped when untimeable, negative or blacklisted.  A pair's exact
// (a, b) is its (x, y) or the worse (y, x), so a bound is never worse
// than the exact key behind it: the walk stops once the next bound is
// no better than the best exact key found, and the pick equals the
// reference's tie for tie.
//
// Cheap necessary conditions keep most untimeable combos away from the
// scorers.  An op's window (or pinned time) contains every start
// score_pair() and score_join() search, so a pair whose windows cannot
// hold two sequential executions, a join whose window finds the
// instance busy throughout, and an op whose window finds every instance
// of a module busy -- one prefix-count lookup that skips all of them --
// are ruled out unscored.
//
// Nothing survives between picks: the merge loop calls rebuild() on the
// current state before every best(), at O(V + buckets + horizon x
// modules) memory.  The merge loop attaches an arena, so the walk reads
// its cached clamp bounds and standalone areas; detached, it runs the
// reference per-node folds.  kernel_tuning::cross_check
// re-runs the reference enumeration after every pick and throws on any
// divergence.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "synth/compat.h"

namespace phls {

/// Equal-saving buckets of the current merge-loop state.
class candidate_store {
public:
    /// Groups the free operations of `in`'s state into equal-saving
    /// buckets.  `in` (and everything it points to) must stay unchanged
    /// until the last best() call on this build.
    void rebuild(const compat_inputs& in);

    /// The candidate the reference pipeline -- enumerate_candidates(),
    /// erase saving < 0 and blacklisted packed_key()s, best_candidate()
    /// -- would choose on the state of the last rebuild(); nullopt when
    /// none.
    std::optional<merge_candidate>
    best(const std::unordered_set<std::uint64_t>& blacklist) const;

private:
    /// Free operations of one kind sharing one standalone area,
    /// ascending id.
    struct group {
        op_kind kind;
        double area = 0.0;
        std::vector<node_id> ops;
    };

    /// Combos sharing one saving: pairs of groups `a` x `b` (a <= b) on
    /// `module`, or joins of group `a` onto the instances of `module`.
    struct bucket {
        double saving = 0.0;
        bool join = false;
        int a = 0;
        int b = 0;
        module_id module;
    };

    /// True when some start in [lo, hi] finds an instance of module `m`
    /// free for the module's latency -- necessary for any join onto one.
    bool any_free(module_id m, int lo, int hi) const;

    compat_inputs in_;
    std::vector<group> groups_;
    std::vector<bucket> buckets_; ///< saving desc, joins first within a level
    std::vector<std::vector<int>> instances_of_; ///< per module, ascending index
    std::vector<std::vector<std::pair<int, int>>> busy_; ///< per instance
    std::vector<std::vector<int>> open_; ///< per module, see any_free()
    int horizon_ = 0; ///< every instance is free from this cycle on
};

} // namespace phls
