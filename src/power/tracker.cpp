#include "power/tracker.h"

#include <algorithm>
#include <bit>

#include "support/errors.h"

namespace phls {

namespace {

/// Leftmost cycle >= lo whose value + power is not over the cap, cycles
/// at or past the leaf capacity counting as free: climb from leaf `lo`
/// over the subtrees to its right until one holds a clean leaf, then
/// descend left-child-first.  The node test is exact: a node holds the
/// min of its leaves, that min is itself a leaf value, and IEEE rounding
/// is monotone, so fl(min + power) is within the limit iff some leaf is.
int leftmost_clean(const std::vector<double>& tree, int leaves, int lo, double power,
                   const cap_test& cap)
{
    if (lo >= leaves) return lo;
    int p = leaves + lo;
    while (true) {
        if (!cap.over(tree[static_cast<std::size_t>(p)] + power)) {
            while (p < leaves) { // left child if it holds a clean leaf, else the right one
                p = 2 * p;
                p += cap.over(tree[static_cast<std::size_t>(p)] + power);
            }
            return p - leaves;
        }
        // Up past every level where p is a right child, then over to the
        // next subtree on the right; climbing past the root leaves none.
        p >>= std::countr_one(static_cast<unsigned>(p));
        if (p == 0) return leaves;
        ++p;
    }
}

} // namespace

bool power_tracker::fits(int start, int duration, double power) const
{
    const cap_test cap(cap_);
    if (cap.over(power)) return false;
    // Cycles past the horizon hold 0 and cannot violate (power alone
    // fits, checked above), so only the in-horizon prefix is scanned.
    check(start >= 0 || duration <= 0, "power_profile::at: negative cycle");
    const std::vector<double>& v = profile_.values();
    const int end = std::min(start + duration, profile_.cycle_count());
    for (int c = start; c < end; ++c)
        if (cap.over(v[static_cast<std::size_t>(c)] + power)) return false;
    return true;
}

int power_tracker::next_fit(int start, int duration, double power) const
{
    check(start >= 0, "power_tracker::next_fit: negative start");
    const cap_test cap(cap_);
    if (cap.over(power)) return -1;
    if (duration <= 0) return start;
    const int horizon = profile_.cycle_count();
    if (horizon > slab_probe_cycles) ensure_tree();
    const std::vector<double>& v = profile_.values();
    int t = start;
    while (t < horizon) {
        // Scan the window right to left.  Cycles at or past the horizon
        // hold 0 and cannot violate (power itself fits the cap), so only
        // [t, min(t+d, horizon)) is probed.
        int c = std::min(t + duration, horizon) - 1;
        while (c >= t && !cap.over(v[static_cast<std::size_t>(c)] + power)) --c;
        if (c < t) return t;
        // Every start in (t, c] still covers cycle c.  With trees, starts
        // beyond it must begin on a cycle with headroom: leap the whole
        // blocked stretch in one descent.
        t = leaves_ == 0 ? c + 1 : leftmost_clean(tree_min_, leaves_, c + 1, power, cap);
    }
    return t;
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
