#include "synth/compat.h"

#include <algorithm>
#include <tuple>

#include "support/errors.h"
#include "support/kernels.h"
#include "support/strings.h"
#include "synth/arena.h"

namespace phls {

std::string merge_candidate::key() const
{
    if (type == merge_type::pair)
        return strf("p:%d:%d:%d", a.value(), b.value(), module.value());
    return strf("j:%d:%d:%d", a.value(), instance, module.value());
}

std::uint64_t merge_candidate::packed_key() const
{
    const bool pair = type == merge_type::pair;
    return pack_candidate_key(pair, a.value(), pair ? b.value() : instance,
                              module.value());
}

double standalone_area(const compat_inputs& in, node_id v)
{
    // Arena fast path: the identical fold, cached per node at the last
    // sync (the inputs it reads only change between syncs).
    if (in.arena != nullptr) return in.arena->standalone(v);

    const int prospect_delay = in.lib->module((*in.assignment)[v.index()]).latency;
    const int f = (*in.fixed)[v.index()];
    const int mobility =
        f >= 0 ? 0 : in.windows->s_max[v.index()] - in.windows->s_min[v.index()];
    const int latency_budget = prospect_delay + mobility;

    double best = -1.0;
    const cap_test cap(in.max_power);
    for (const fu_module& m : in.lib->modules()) {
        if (!m.supports(in.g->kind(v))) continue;
        if (cap.over(m.power)) continue;
        if (m.latency > latency_budget) continue;
        if (best < 0.0 || m.area < best) best = m.area;
    }
    if (best < 0.0) {
        // The prospect module always qualifies; keep a safe fallback for
        // exotic custom libraries.
        best = in.lib->module((*in.assignment)[v.index()]).area;
    }
    return best;
}

double mux_penalty(const fu_module& m, const cost_model& costs)
{
    if (!costs.include_interconnect) return 0.0;
    int ports = 0;
    if (m.supports(op_kind::add) || m.supports(op_kind::sub) || m.supports(op_kind::mult) ||
        m.supports(op_kind::comp))
        ports = 2;
    else if (m.supports(op_kind::output))
        ports = 1;
    return costs.mux_area_per_extra_input * ports;
}

std::vector<std::pair<int, int>> busy_intervals(const compat_inputs& in,
                                                const fu_instance& inst)
{
    std::vector<std::pair<int, int>> busy;
    const int d = in.lib->module(inst.module).latency;
    busy.reserve(inst.ops.size());
    for (node_id v : inst.ops) {
        const int t = (*in.fixed)[v.index()];
        check(t >= 0, "committed operation has no fixed time");
        busy.emplace_back(t, t + d);
    }
    std::sort(busy.begin(), busy.end());
    return busy;
}

namespace {

bool overlaps(int s1, int e1, int s2, int e2) { return s1 < e2 && s2 < e1; }

/// Reference probe: smallest t in [lo, hi] such that [t, t+d) avoids
/// `busy` and fits the committed power reservations; -1 if none.  The
/// seed-era linear scan, retained for the skip_probe ablation.
int find_slot_linear(const compat_inputs& in, int lo, int hi, int d, double power,
                     const std::vector<std::pair<int, int>>& busy)
{
    for (int t = lo; t <= hi; ++t) {
        bool clash = false;
        for (const auto& [bs, be] : busy) {
            if (overlaps(t, t + d, bs, be)) {
                clash = true;
                // Skip directly past this busy interval.
                t = std::max(t, be - 1);
                break;
            }
        }
        if (clash) continue;
        if (!in.committed_power->fits(t, d, power)) continue;
        return t;
    }
    return -1;
}

/// Skip-ahead probe: alternates between jumping past committed busy
/// intervals (sorted, two-pointer) and power_tracker::next_fit, which
/// jumps past the last violating power cycle.  Every skipped start
/// provably clashes or violates, so the returned slot is the same
/// minimal t the linear scan finds.
int find_slot_skip(const compat_inputs& in, int lo, int hi, int d, double power,
                   const std::vector<std::pair<int, int>>& busy)
{
    int t = lo;
    std::size_t bi = 0;
    while (t <= hi) {
        while (bi < busy.size() && busy[bi].second <= t) ++bi;
        if (bi < busy.size() && busy[bi].first < t + d) {
            // [t, t+d) overlaps busy[bi]; no start before its end can
            // clear it (starts are only probed forward).
            t = busy[bi].second;
            continue;
        }
        const int p = in.committed_power->next_fit(t, d, power);
        if (p < 0) return -1; // power alone exceeds the cap: no t ever fits
        if (p != t) {
            t = p; // skipped past power violations; re-check busy intervals
            continue;
        }
        return t;
    }
    return -1;
}

int find_slot(const compat_inputs& in, int lo, int hi, int d, double power,
              const std::vector<std::pair<int, int>>& busy)
{
    if (kernel_knobs().skip_probe) return find_slot_skip(in, lo, hi, d, power, busy);
    return find_slot_linear(in, lo, hi, d, power, busy);
}

/// Window of `v`: its pasap/palap range, or its pinned time when fixed.
std::pair<int, int> window_of(const compat_inputs& in, node_id v)
{
    const int f = (*in.fixed)[v.index()];
    if (f >= 0) return {f, f};
    return {in.windows->s_min[v.index()], in.windows->s_max[v.index()]};
}

/// Tightens [lo, hi] for running `v` with delay `d` against its
/// neighbours' windows: committed neighbours contribute their fixed
/// times; free neighbours contribute their pasap/palap window edges.
/// This matters whenever the candidate module is slower than the
/// prospect the windows assumed (e.g. pairing onto the serial
/// multiplier): committing such a time would delete a successor, forcing
/// the paper's backtrack-and-lock -- bounding by the windows up front is
/// exactly the time-extended compatibility idea of V1.
std::pair<int, int> clamp_by_neighbors(const compat_inputs& in, node_id v, int d, int lo,
                                       int hi)
{
    // Arena fast path: both folds are precomputed per node.  The lo side
    // is module-independent; the hi side commutes the constant -d out of
    // the integer min, so both are exact.
    if (in.arena != nullptr)
        return {std::max(lo, in.arena->pred_bound(v)),
                std::min(hi, in.arena->succ_latest(v) - d)};

    for (node_id p : in.g->preds(v)) {
        const int f = (*in.fixed)[p.index()];
        const int earliest = f >= 0 ? f : in.windows->s_min[p.index()];
        lo = std::max(lo, earliest + in.lib->module((*in.assignment)[p.index()]).latency);
    }
    for (node_id s : in.g->succs(v)) {
        const int f = (*in.fixed)[s.index()];
        const int latest = f >= 0 ? f : in.windows->s_max[s.index()];
        hi = std::min(hi, latest - d);
    }
    return {lo, hi};
}

/// Attempts to time (first, second) sequentially on a module of delay
/// `d` and power `power`, given each op's already clamped start bounds.
/// Returns {t_first, t_second} or {-1, -1}.
std::pair<int, int> time_pair(const compat_inputs& in, int lo1, int hi1, int lo2raw,
                              int hi2, int d, double power)
{
    if (lo1 > hi1 || lo2raw > hi2) return {-1, -1};
    const int t1 = find_slot(in, lo1, hi1, d, power, {});
    if (t1 < 0) return {-1, -1};
    const int lo2 = std::max(lo2raw, t1 + d);
    if (lo2 > hi2) return {-1, -1};
    const int t2 = find_slot(in, lo2, hi2, d, power, {{t1, t1 + d}});
    if (t2 < 0) return {-1, -1};
    return {t1, t2};
}

} // namespace

candidate_score score_pair(const compat_inputs& in, node_id a, node_id b, module_id mid)
{
    candidate_score out;
    const fu_module& m = in.lib->module(mid);
    if (!m.supports(in.g->kind(a)) || !m.supports(in.g->kind(b))) return out;
    if (cap_test(in.max_power).over(m.power)) return out;

    const int d = m.latency;
    auto [la, ha] = window_of(in, a);
    std::tie(la, ha) = clamp_by_neighbors(in, a, d, la, ha);
    auto [lb, hb] = window_of(in, b);
    std::tie(lb, hb) = clamp_by_neighbors(in, b, d, lb, hb);

    // Dependency forces the order; otherwise try both and keep the one
    // finishing earlier.
    std::pair<int, int> times{-1, -1};
    node_id first = a, second = b;
    if (in.reach->reaches(a, b)) {
        times = time_pair(in, la, ha, lb, hb, d, m.power);
    } else if (in.reach->reaches(b, a)) {
        first = b;
        second = a;
        times = time_pair(in, lb, hb, la, ha, d, m.power);
    } else {
        const std::pair<int, int> ab = time_pair(in, la, ha, lb, hb, d, m.power);
        const std::pair<int, int> ba = time_pair(in, lb, hb, la, ha, d, m.power);
        if (ab.first >= 0 && (ba.first < 0 || ab.second <= ba.second)) {
            times = ab;
        } else if (ba.first >= 0) {
            first = b;
            second = a;
            times = ba;
        }
    }
    if (times.first < 0) return out;

    merge_candidate c;
    c.type = merge_candidate::merge_type::pair;
    c.a = first;
    c.b = second;
    c.module = mid;
    c.t_a = times.first;
    c.t_b = times.second;
    c.saving = standalone_area(in, a) + standalone_area(in, b) - m.area -
               mux_penalty(m, *in.costs);
    out.cand = c;
    out.ok = true;
    return out;
}

candidate_score score_join(const compat_inputs& in, node_id a, const fu_instance& inst,
                           const std::vector<std::pair<int, int>>& busy)
{
    candidate_score out;
    const fu_module& m = in.lib->module(inst.module);
    if (!m.supports(in.g->kind(a))) return out;

    // Dependency bounds: direct fixed neighbours (the window assumed the
    // prospect delay) plus transitive ordering against the instance's
    // committed operations.
    auto [lo, hi] = window_of(in, a);
    std::tie(lo, hi) = clamp_by_neighbors(in, a, m.latency, lo, hi);
    for (node_id o : inst.ops) {
        const int to = (*in.fixed)[o.index()];
        if (in.reach->reaches(o, a)) lo = std::max(lo, to + m.latency);
        if (in.reach->reaches(a, o)) hi = std::min(hi, to - m.latency);
    }
    if (lo > hi) return out;
    const int t = find_slot(in, lo, hi, m.latency, m.power, busy);
    if (t < 0) return out;

    merge_candidate c;
    c.type = merge_candidate::merge_type::join;
    c.a = a;
    c.instance = inst.index;
    c.module = inst.module;
    c.t_a = t;
    c.saving = standalone_area(in, a) - mux_penalty(m, *in.costs);
    out.cand = c;
    out.ok = true;
    return out;
}

std::vector<merge_candidate> enumerate_candidates(const compat_inputs& in)
{
    check(in.g && in.lib && in.costs && in.reach && in.windows && in.fixed &&
              in.committed && in.instances && in.committed_power && in.assignment,
          "compat_inputs is incomplete");

    std::vector<merge_candidate> out;
    std::vector<node_id> free_ops;
    for (node_id v : in.g->node_ids())
        if (!(*in.committed)[v.index()]) free_ops.push_back(v);

    // Busy intervals are a function of the instance alone: build each
    // once per call instead of once per (op, instance) candidate.
    std::vector<std::vector<std::pair<int, int>>> busy;
    busy.reserve(in.instances->size());
    for (const fu_instance& inst : *in.instances) busy.push_back(busy_intervals(in, inst));

    for (std::size_t i = 0; i < free_ops.size(); ++i) {
        for (std::size_t j = i + 1; j < free_ops.size(); ++j) {
            for (int mi = 0; mi < in.lib->size(); ++mi) {
                const candidate_score s =
                    score_pair(in, free_ops[i], free_ops[j], module_id(mi));
                if (s.ok) out.push_back(s.cand);
            }
        }
        for (const fu_instance& inst : *in.instances) {
            const candidate_score s =
                score_join(in, free_ops[i], inst, busy[static_cast<std::size_t>(inst.index)]);
            if (s.ok) out.push_back(s.cand);
        }
    }
    return out;
}

int best_candidate(const std::vector<merge_candidate>& candidates)
{
    int best = -1;
    for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
        if (best < 0) {
            best = i;
            continue;
        }
        const merge_candidate& c = candidates[static_cast<std::size_t>(i)];
        const merge_candidate& b = candidates[static_cast<std::size_t>(best)];
        const bool c_join = c.type == merge_candidate::merge_type::join;
        const bool b_join = b.type == merge_candidate::merge_type::join;
        if (c.saving > b.saving ||
            (c.saving == b.saving &&
             (c_join > b_join ||
              (c_join == b_join && (c.a < b.a || (c.a == b.a && c.b < b.b))))))
            best = i;
    }
    return best;
}

} // namespace phls
