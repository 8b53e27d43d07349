#include "power/tracker.h"

#include <algorithm>

#include "support/errors.h"
#include "support/kernels.h"

namespace phls {

namespace {

/// Rightmost leaf in [lo, hi) of the subtree `node` (covering
/// [node_lo, node_hi)) whose value + power is over the cap, or -1.  The
/// subtree test is exact: the node holds the max of its leaves, that
/// max is itself a leaf value, and IEEE rounding is monotone, so
/// fl(max + power) is over the limit iff some leaf violates.
int rightmost_violation(const std::vector<double>& tree, int node, int node_lo,
                        int node_hi, int lo, int hi, double power, const cap_test& cap)
{
    if (node_hi <= lo || hi <= node_lo) return -1;
    if (!cap.over(tree[static_cast<std::size_t>(node)] + power)) return -1;
    if (node_lo + 1 == node_hi) return node_lo;
    const int mid = node_lo + (node_hi - node_lo) / 2;
    const int right =
        rightmost_violation(tree, 2 * node + 1, mid, node_hi, lo, hi, power, cap);
    if (right >= 0) return right;
    return rightmost_violation(tree, 2 * node, node_lo, mid, lo, hi, power, cap);
}

/// Leftmost leaf >= lo whose value + power is not over the cap, or -1;
/// exact by the same monotonicity argument over the min tree.
int leftmost_clean(const std::vector<double>& tree, int node, int node_lo, int node_hi,
                   int lo, double power, const cap_test& cap)
{
    if (node_hi <= lo) return -1;
    if (cap.over(tree[static_cast<std::size_t>(node)] + power)) return -1;
    if (node_lo + 1 == node_hi) return node_lo;
    const int mid = node_lo + (node_hi - node_lo) / 2;
    const int left = leftmost_clean(tree, 2 * node, node_lo, mid, lo, power, cap);
    if (left >= 0) return left;
    return leftmost_clean(tree, 2 * node + 1, mid, node_hi, lo, power, cap);
}

/// Iterative rightmost_violation over the canonical segment-tree
/// decomposition of [lo, hi): collect the O(log H) covering nodes
/// bottom-up, scan them right-to-left, and descend right-child-first
/// into the first one whose max violates.  Same predicate expression,
/// same exactness argument, no recursion.
int rightmost_violation_iter(const std::vector<double>& tree, int leaves, int lo,
                             int hi, double power, const cap_test& cap)
{
    int lnodes[64];
    int rnodes[64];
    int ln = 0;
    int rn = 0;
    int l = leaves + lo;
    int r = leaves + hi;
    while (l < r) {
        if (l & 1) lnodes[ln++] = l++;
        if (r & 1) rnodes[rn++] = --r;
        l >>= 1;
        r >>= 1;
    }
    // rnodes[0..rn) covers the range right-to-left, lnodes[0..ln)
    // left-to-right; scan for the rightmost covering node that violates.
    int hit = -1;
    for (int i = 0; i < rn && hit < 0; ++i)
        if (cap.over(tree[static_cast<std::size_t>(rnodes[i])] + power)) hit = rnodes[i];
    for (int i = ln - 1; i >= 0 && hit < 0; --i)
        if (cap.over(tree[static_cast<std::size_t>(lnodes[i])] + power)) hit = lnodes[i];
    if (hit < 0) return -1;
    while (hit < leaves) {
        hit = 2 * hit + 1;
        if (!cap.over(tree[static_cast<std::size_t>(hit)] + power)) --hit;
    }
    return hit - leaves;
}

/// Iterative leftmost_clean: climb from leaf `lo` over the subtrees to
/// its right until one holds a clean leaf, then descend left-child-first.
int leftmost_clean_iter(const std::vector<double>& tree, int leaves, int lo,
                        double power, const cap_test& cap)
{
    int p = leaves + lo;
    while (true) {
        if (!cap.over(tree[static_cast<std::size_t>(p)] + power)) {
            while (p < leaves) {
                p = 2 * p;
                if (cap.over(tree[static_cast<std::size_t>(p)] + power)) ++p;
            }
            return p - leaves;
        }
        while (p != 1 && (p & 1)) p >>= 1;
        if (p == 1) return -1;
        ++p;
    }
}

} // namespace

bool power_tracker::fits(int start, int duration, double power) const
{
    const cap_test cap(cap_);
    if (cap.over(power)) return false;
    if (kernel_knobs().dense_power) {
        // Scan the contiguous per-cycle slab directly instead of paying
        // profile_.at()'s bounds check + horizon branch per cycle.
        // Cycles past the horizon hold 0 and cannot violate (power alone
        // fits, checked above), so only the in-horizon prefix is probed.
        check(start >= 0 || duration <= 0, "power_profile::at: negative cycle");
        const std::vector<double>& v = profile_.values();
        const int end = std::min(start + duration, profile_.cycle_count());
        for (int c = start; c < end; ++c)
            if (cap.over(v[static_cast<std::size_t>(c)] + power)) return false;
        return true;
    }
    for (int c = start; c < start + duration; ++c)
        if (cap.over(profile_.at(c) + power)) return false;
    return true;
}

int power_tracker::next_fit(int start, int duration, double power) const
{
    check(start >= 0, "power_tracker::next_fit: negative start");
    const cap_test cap(cap_);
    if (cap.over(power)) return -1;
    if (duration <= 0) return start;
    ensure_tree();
    const int horizon = profile_.cycle_count();
    int t = start;
    while (t < horizon) {
        // Cycles at or past the horizon hold 0 and cannot violate (power
        // itself fits the cap), so only [t, min(t+d, horizon)) is probed.
        const int c = last_violation(t, std::min(t + duration, horizon), power, cap);
        if (c < 0) return t;
        // Every start in (t, c] still covers cycle c, and starts beyond
        // it must begin on a cycle with headroom: leap the whole blocked
        // stretch in one descent.
        t = first_clean(c + 1, power, cap);
    }
    return t;
}

int power_tracker::last_violation(int lo, int hi, double power, const cap_test& cap) const
{
    if (leaves_ == 0 || hi <= lo) return -1;
    if (kernel_knobs().dense_power)
        return rightmost_violation_iter(tree_max_, leaves_, lo, std::min(hi, leaves_),
                                        power, cap);
    return rightmost_violation(tree_max_, 1, 0, leaves_, lo, std::min(hi, leaves_), power,
                               cap);
}

int power_tracker::first_clean(int from, double power, const cap_test& cap) const
{
    if (from >= leaves_) return from; // past the tree: free cycles
    const int c = kernel_knobs().dense_power
                      ? leftmost_clean_iter(tree_min_, leaves_, from, power, cap)
                      : leftmost_clean(tree_min_, 1, 0, leaves_, from, power, cap);
    return c >= 0 ? c : leaves_;
}

double power_tracker::headroom(int start, int duration) const
{
    check(start >= 0 && duration >= 0, "power_tracker::headroom: bad interval");
    const int end = std::min(start + duration, profile_.cycle_count());
    if (end <= start) return cap_; // empty window, or wholly past the horizon
    ensure_tree();
    // Canonical segment-tree decomposition of [start, end): the max of
    // the O(log H) covering nodes is the max per-cycle usage.
    double used = 0.0;
    int l = leaves_ + start;
    int r = leaves_ + end;
    while (l < r) {
        if (l & 1) used = std::max(used, tree_max_[static_cast<std::size_t>(l++)]);
        if (r & 1) used = std::max(used, tree_max_[static_cast<std::size_t>(--r)]);
        l >>= 1;
        r >>= 1;
    }
    return cap_ - used;
}

void power_tracker::ensure_tree() const
{
    const int n = profile_.cycle_count();
    if (leaves_ > 0 || n == 0) return;
    int cap = 64;
    while (cap < n) cap *= 2;
    leaves_ = cap;
    tree_max_.assign(2 * static_cast<std::size_t>(leaves_), 0.0);
    tree_min_.assign(2 * static_cast<std::size_t>(leaves_), 0.0);
    const std::vector<double>& v = profile_.values();
    for (int c = 0; c < n; ++c) {
        tree_max_[static_cast<std::size_t>(leaves_ + c)] = v[c];
        tree_min_[static_cast<std::size_t>(leaves_ + c)] = v[c];
    }
    for (int i = leaves_ - 1; i >= 1; --i) {
        tree_max_[static_cast<std::size_t>(i)] =
            std::max(tree_max_[static_cast<std::size_t>(2 * i)],
                     tree_max_[static_cast<std::size_t>(2 * i + 1)]);
        tree_min_[static_cast<std::size_t>(i)] =
            std::min(tree_min_[static_cast<std::size_t>(2 * i)],
                     tree_min_[static_cast<std::size_t>(2 * i + 1)]);
    }
}

void power_tracker::sync_tree(int start, int end) const
{
    if (leaves_ == 0) return; // no tree yet: nothing to keep in sync
    const int n = profile_.cycle_count();
    end = std::min(end, n);
    if (end <= start) return;
    const std::vector<double>& v = profile_.values();
    if (n > leaves_) {
        // Grow to the next power of two and rebuild (amortised over the
        // deposits that caused the growth).
        leaves_ = 0;
        ensure_tree();
        return;
    }
    for (int c = start; c < end; ++c) {
        tree_max_[static_cast<std::size_t>(leaves_ + c)] = v[c];
        tree_min_[static_cast<std::size_t>(leaves_ + c)] = v[c];
    }
    int lo = (leaves_ + start) >> 1;
    int hi = (leaves_ + end - 1) >> 1;
    while (lo >= 1) {
        for (int i = lo; i <= hi; ++i) {
            tree_max_[static_cast<std::size_t>(i)] =
                std::max(tree_max_[static_cast<std::size_t>(2 * i)],
                         tree_max_[static_cast<std::size_t>(2 * i + 1)]);
            tree_min_[static_cast<std::size_t>(i)] =
                std::min(tree_min_[static_cast<std::size_t>(2 * i)],
                         tree_min_[static_cast<std::size_t>(2 * i + 1)]);
        }
        lo >>= 1;
        hi >>= 1;
    }
}

void power_tracker::reserve(int start, int duration, double power)
{
    check(fits(start, duration, power), "power_tracker::reserve would exceed the cap");
    profile_.deposit(start, duration, power);
    sync_tree(start, start + duration);
}

void power_tracker::release(int start, int duration, double power)
{
    profile_.withdraw(start, duration, power);
    sync_tree(start, start + duration);
}

std::vector<double> power_tracker::interval_values(int start, int duration) const
{
    check(start >= 0 && duration >= 0, "power_tracker::interval_values: bad interval");
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(duration));
    for (int c = start; c < start + duration; ++c) values.push_back(profile_.at(c));
    return values;
}

void power_tracker::restore_interval(int start, const std::vector<double>& values)
{
    // Cycles captured past the horizon read as 0 and still do (a rolled
    // back attempt may never have grown the profile that far); only the
    // in-horizon prefix is written back.
    const int in_horizon =
        std::clamp(profile_.cycle_count() - start, 0, static_cast<int>(values.size()));
    for (std::size_t i = static_cast<std::size_t>(in_horizon); i < values.size(); ++i)
        check(values[i] == 0.0,
              "power_tracker::restore_interval: non-zero value past the horizon");
    if (in_horizon > 0) profile_.overwrite(start, values.data(), in_horizon);
    sync_tree(start, start + in_horizon);
}

} // namespace phls
