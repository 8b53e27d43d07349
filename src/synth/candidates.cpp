#include "synth/candidates.h"

#include <algorithm>
#include <tuple>

#include "support/errors.h"

namespace phls {

namespace {

/// Order of combos inside one equal-saving level, ascending: pairs by
/// (a, b, module), joins by (a, instance, 0).  For a pair's bound, a is
/// the smaller id.
using level_key = std::tuple<int, int, int>;

/// Yields one bucket's combos in bound order.  Pairs within one group
/// are (ops[i], ops[j]) for i < j.  Pairs across two disjoint groups
/// take x = min(a[i], b[j]) with the other group's ops from its current
/// position on as partners: every op it passed is smaller than x.  Joins
/// are (ops[i], instances[j]).
class cursor {
public:
    cursor(const std::vector<node_id>* a, const std::vector<node_id>* b,
           const std::vector<int>* instances, int module)
        : a_(a), b_(b), instances_(instances), module_(module)
    {
        if (a_ == b_) j_ = 1;
    }

    bool done() const
    {
        if (instances_ != nullptr) return i_ >= a_->size();
        if (a_ == b_) return j_ >= a_->size();
        return i_ >= a_->size() || j_ >= b_->size();
    }

    module_id module() const { return module_id(module_); }

    level_key head() const
    {
        if (instances_ != nullptr) return {(*a_)[i_].value(), (*instances_)[j_], 0};
        if (a_ == b_) return {(*a_)[i_].value(), (*a_)[j_].value(), module_};
        const node_id x = (*a_)[i_], y = (*b_)[j_];
        if (x < y) return {x.value(), (*b_)[j_ + k_].value(), module_};
        return {y.value(), (*a_)[i_ + k_].value(), module_};
    }

    /// Joins: moves on to the next op, past the current op's remaining
    /// instances.
    void skip_op()
    {
        ++i_;
        j_ = 0;
    }

    void advance()
    {
        if (instances_ != nullptr) {
            if (++j_ == instances_->size()) {
                ++i_;
                j_ = 0;
            }
        } else if (a_ == b_) {
            if (++j_ == a_->size()) {
                ++i_;
                j_ = i_ + 1;
            }
        } else if ((*a_)[i_] < (*b_)[j_]) {
            if (j_ + ++k_ == b_->size()) {
                ++i_;
                k_ = 0;
            }
        } else if (i_ + ++k_ == a_->size()) {
            ++j_;
            k_ = 0;
        }
    }

private:
    const std::vector<node_id>* a_;
    const std::vector<node_id>* b_;
    const std::vector<int>* instances_;
    int module_;
    std::size_t i_ = 0, j_ = 0, k_ = 0;
};

/// True when some start t in [lo, hi] keeps [t, t + d) clear of the
/// sorted, disjoint intervals `busy`.  score_join() searches a sub-range
/// of its op's window for such a slot, so false rules the join out
/// without its clamps and reachability walk.
bool busy_allows(const std::vector<std::pair<int, int>>& busy, int lo, int hi, int d)
{
    int t = lo;
    auto it = std::upper_bound(busy.begin(), busy.end(), t,
                               [](int v, const std::pair<int, int>& b) { return v < b.second; });
    for (; it != busy.end() && it->first < t + d; ++it) t = it->second;
    return t <= hi;
}

} // namespace

void candidate_store::rebuild(const compat_inputs& in)
{
    check(in.g && in.lib && in.costs && in.reach && in.windows && in.fixed &&
              in.committed && in.instances && in.committed_power && in.assignment,
          "compat_inputs is incomplete");
    in_ = in;
    groups_.clear();
    buckets_.clear();

    std::vector<std::vector<int>> groups_of_kind(static_cast<std::size_t>(op_kind_count));
    for (node_id v : in.g->node_ids()) {
        if ((*in.committed)[v.index()]) continue;
        const op_kind k = in.g->kind(v);
        const double area = standalone_area(in, v);
        std::vector<int>& mine = groups_of_kind[static_cast<std::size_t>(op_kind_index(k))];
        auto it = std::find_if(mine.begin(), mine.end(), [&](int gi) {
            return groups_[static_cast<std::size_t>(gi)].area == area;
        });
        if (it == mine.end()) {
            mine.push_back(static_cast<int>(groups_.size()));
            groups_.push_back({k, area, {}});
            it = mine.end() - 1;
        }
        groups_[static_cast<std::size_t>(*it)].ops.push_back(v);
    }

    instances_of_.assign(static_cast<std::size_t>(in.lib->size()), {});
    busy_.clear();
    horizon_ = 0;
    for (const fu_instance& inst : *in.instances) {
        instances_of_[inst.module.index()].push_back(inst.index);
        busy_.push_back(busy_intervals(in, inst));
        for (const auto& [start, end] : busy_.back()) horizon_ = std::max(horizon_, end);
    }

    // Per module: prefix counts of the start cycles at which at least one
    // instance is free for the module's latency.  A start is blocked by a
    // busy interval [s, e) iff it lies in [s - d + 1, e - 1]; each
    // instance's blocked ranges are merged before they are counted.
    open_.assign(static_cast<std::size_t>(in.lib->size()), {});
    for (int mi = 0; mi < in.lib->size(); ++mi) {
        const std::vector<int>& insts = instances_of_[static_cast<std::size_t>(mi)];
        if (insts.empty()) continue;
        const int d = in.lib->module(module_id(mi)).latency;
        std::vector<int> blocked(static_cast<std::size_t>(horizon_) + 1, 0);
        for (const int i : insts) {
            int next = 0;
            for (const auto& [start, end] : busy_[static_cast<std::size_t>(i)]) {
                const int from = std::max(start - d + 1, next);
                if (from > end - 1) continue;
                ++blocked[static_cast<std::size_t>(from)];
                --blocked[static_cast<std::size_t>(end)];
                next = end;
            }
        }
        std::vector<int>& open = open_[static_cast<std::size_t>(mi)];
        open.assign(static_cast<std::size_t>(horizon_) + 1, 0);
        int now = 0;
        for (std::size_t c = 0; c < static_cast<std::size_t>(horizon_); ++c) {
            now += blocked[c];
            open[c + 1] = open[c] + (now < static_cast<int>(insts.size()) ? 1 : 0);
        }
    }

    // Each bucket's saving is the exact expression score_pair() /
    // score_join() computes for every combo in it; negative buckets can
    // never yield a pick.
    const int n_groups = static_cast<int>(groups_.size());
    const cap_test cap(in.max_power);
    for (int a = 0; a < n_groups; ++a) {
        const group& ga = groups_[static_cast<std::size_t>(a)];
        for (int mi = 0; mi < in.lib->size(); ++mi) {
            const fu_module& m = in.lib->module(module_id(mi));
            const double mux = mux_penalty(m, *in.costs);
            if (!m.supports(ga.kind)) continue;
            if (!instances_of_[static_cast<std::size_t>(mi)].empty() && !(ga.area - mux < 0.0))
                buckets_.push_back({ga.area - mux, true, a, a, module_id(mi)});
            // score_pair()'s static prechecks.
            if (cap.over(m.power)) continue;
            for (int b = a; b < n_groups; ++b) {
                const group& gb = groups_[static_cast<std::size_t>(b)];
                if (!m.supports(gb.kind) || (a == b && ga.ops.size() < 2)) continue;
                const double saving = ga.area + gb.area - m.area - mux;
                if (!(saving < 0.0)) buckets_.push_back({saving, false, a, b, module_id(mi)});
            }
        }
    }
    std::sort(buckets_.begin(), buckets_.end(), [](const bucket& x, const bucket& y) {
        if (x.saving != y.saving) return x.saving > y.saving;
        return x.join && !y.join;
    });
}

bool candidate_store::any_free(module_id m, int lo, int hi) const
{
    lo = std::max(lo, 0);
    if (lo > hi) return false;
    if (hi >= horizon_) return true;
    const std::vector<int>& open = open_[m.index()];
    return open[static_cast<std::size_t>(hi) + 1] - open[static_cast<std::size_t>(lo)] > 0;
}

std::optional<merge_candidate>
candidate_store::best(const std::unordered_set<std::uint64_t>& blacklist) const
{
    const compat_inputs& in = in_;
    // An op's window (or pinned time) contains every start score_pair()
    // and score_join() search after their clamps, so a combo these
    // windows cannot time is ruled out without scoring it.
    const auto window = [&](node_id v) {
        const int f = (*in.fixed)[v.index()];
        return f >= 0 ? std::pair<int, int>{f, f}
                      : std::pair<int, int>{in.windows->s_min[v.index()],
                                            in.windows->s_max[v.index()]};
    };
    const auto score = [&](bool join, const level_key& k) {
        const node_id x(std::get<0>(k));
        const auto [lx, hx] = window(x);
        if (!join) {
            const node_id y(std::get<1>(k));
            const module_id m(std::get<2>(k));
            const int d = in.lib->module(m).latency;
            const auto [ly, hy] = window(y);
            if (lx + d > hy && ly + d > hx) return candidate_score{};
            return score_pair(in, x, y, m);
        }
        const fu_instance& inst = (*in.instances)[static_cast<std::size_t>(std::get<1>(k))];
        const std::vector<std::pair<int, int>>& busy = busy_[static_cast<std::size_t>(inst.index)];
        if (!busy_allows(busy, lx, hx, in.lib->module(inst.module).latency))
            return candidate_score{};
        return score_join(in, x, inst, busy);
    };
    const auto later = [](const cursor& x, const cursor& y) { return y.head() < x.head(); };

    std::vector<cursor> open;
    for (std::size_t lo = 0; lo < buckets_.size();) {
        std::size_t hi = lo;
        while (hi < buckets_.size() && buckets_[hi].saving == buckets_[lo].saving) ++hi;
        // Every combo of the level has the level's saving, so the first
        // level with a usable combo holds the pick.
        std::optional<merge_candidate> pick;
        level_key pick_key;
        for (const bool join : {true, false}) {
            open.clear();
            for (std::size_t i = lo; i < hi; ++i) {
                const bucket& b = buckets_[i];
                if (b.join != join) continue;
                const std::vector<node_id>* ops = &groups_[static_cast<std::size_t>(b.a)].ops;
                const cursor c =
                    join ? cursor(ops, nullptr, &instances_of_[b.module.index()],
                                  b.module.value())
                         : cursor(ops, &groups_[static_cast<std::size_t>(b.b)].ops, nullptr,
                                  b.module.value());
                if (!c.done()) open.push_back(c);
            }
            std::make_heap(open.begin(), open.end(), later);
            while (!open.empty()) {
                std::pop_heap(open.begin(), open.end(), later);
                cursor& c = open.back();
                const level_key bound = c.head();
                if (pick && !(bound < pick_key)) break;
                const auto [lx, hx] = window(node_id(std::get<0>(bound)));
                if (join && !any_free(c.module(), lx, hx)) {
                    c.skip_op(); // no instance of the module is free in x's window
                } else {
                    const candidate_score s = score(join, bound);
                    if (s.ok && !(s.cand.saving < 0.0) &&
                        blacklist.count(s.cand.packed_key()) == 0) {
                        const level_key exact =
                            join ? bound
                                 : level_key{s.cand.a.value(), s.cand.b.value(),
                                             std::get<2>(bound)};
                        if (!pick || exact < pick_key) {
                            pick = s.cand;
                            pick_key = exact;
                        }
                    }
                    c.advance();
                }
                if (c.done())
                    open.pop_back();
                else
                    std::push_heap(open.begin(), open.end(), later);
            }
            if (pick) return pick;
        }
        lo = hi;
    }
    return std::nullopt;
}

} // namespace phls
