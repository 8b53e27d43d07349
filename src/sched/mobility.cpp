#include "sched/mobility.h"

#include <algorithm>
#include <numeric>

#include "support/errors.h"
#include "support/kernels.h"
#include "support/strings.h"

namespace phls {

time_windows power_windows(const graph& g, const module_library& lib,
                           const module_assignment& assignment, double max_power,
                           int latency, const pasap_options& options)
{
    time_windows w;
    if (kernel_knobs().skip_probe) {
        window_engine(g, lib, options.order, options.topo, options.reversed_topo)
            .windows(assignment, max_power, latency, options.fixed_starts, w);
        return w;
    }
    // The seed-era reference: pasap() and palap() run their reference
    // passes under the same knob.
    const pasap_result lo = pasap(g, lib, assignment, max_power, options);
    if (!lo.feasible) {
        w.reason = "pasap: " + lo.reason;
        return w;
    }
    if (lo.sched.latency(lib) > latency) {
        w.reason = strf("pasap schedule needs %d cycles, latency bound is %d",
                        lo.sched.latency(lib), latency);
        return w;
    }
    // The pasap schedule is a complete valid solution, so the problem is
    // feasible; palap can only *widen* windows.  Because both are greedy
    // heuristics they may disagree (palap may fail or place an operator
    // before its pasap time under power contention); in that case the
    // operator's window degenerates to its pasap time, which is always a
    // usable witness.
    const pasap_result hi = palap(g, lib, assignment, max_power, latency, options);
    w.s_min.resize(static_cast<std::size_t>(g.node_count()));
    w.s_max.resize(static_cast<std::size_t>(g.node_count()));
    for (node_id v : g.node_ids()) {
        w.s_min[v.index()] = lo.sched.start(v);
        w.s_max[v.index()] =
            hi.feasible ? std::max(lo.sched.start(v), hi.sched.start(v)) : lo.sched.start(v);
    }
    w.feasible = true;
    return w;
}

namespace {

/// palap's committed starts on the reversed clock: a start f of an
/// operator with delay d becomes latency - f - d.  False, with `reason`
/// set, at the first commitment in id order that ends past the bound.
template <typename Delay>
bool to_reversed_clock(const graph& g, const std::vector<int>& fixed, int latency,
                       Delay delay, std::vector<int>& rfixed, std::string* reason)
{
    for (node_id v : g.node_ids()) {
        const int f = fixed[v.index()];
        rfixed[v.index()] = -1;
        if (f < 0) continue;
        const int d = delay(v.index());
        if (f + d > latency) {
            if (reason != nullptr)
                *reason = strf("committed operator '%s' (start %d, delay %d) exceeds the "
                               "latency bound %d",
                               g.label(v).c_str(), f, d, latency);
            return false;
        }
        rfixed[v.index()] = latency - f - d;
    }
    return true;
}

} // namespace

window_engine::window_engine(const graph& g, const module_library& lib, pasap_order order,
                             const std::vector<node_id>* topo,
                             const std::vector<node_id>* reversed_topo)
    : g_(g), lib_(lib), order_(order), n_(g.node_count()),
      module_(static_cast<std::size_t>(n_)), delay_(static_cast<std::size_t>(n_), 0),
      power_(static_cast<std::size_t>(n_), 0.0), start_(static_cast<std::size_t>(n_), -1),
      rfixed_(static_cast<std::size_t>(n_), -1), ledger_(unbounded_power)
{
    const std::size_t n = static_cast<std::size_t>(n_);
    succ_off_.assign(n + 1, 0);
    pred_off_.assign(n + 1, 0);
    for (node_id v : g.node_ids()) {
        succ_off_[v.index() + 1] = succ_off_[v.index()] + static_cast<int>(g.succs(v).size());
        pred_off_[v.index() + 1] = pred_off_[v.index()] + static_cast<int>(g.preds(v).size());
    }
    succ_.resize(static_cast<std::size_t>(succ_off_[n]));
    pred_.resize(static_cast<std::size_t>(pred_off_[n]));
    // reversed_graph() appends v to the successors of every s in
    // g.succs(v), walking v in id order: producers by ascending id.
    std::vector<int> next_pred(pred_off_.begin(), pred_off_.end() - 1);
    for (node_id v : g.node_ids()) {
        int k = succ_off_[v.index()];
        for (node_id s : g.succs(v)) {
            succ_[static_cast<std::size_t>(k++)] = s.value();
            pred_[static_cast<std::size_t>(next_pred[s.index()]++)] = v.value();
        }
    }
    const std::vector<node_id> own_topo = topo ? std::vector<node_id>{} : g.topo_order();
    topo_.reserve(n);
    for (node_id v : topo ? *topo : own_topo) topo_.push_back(v.value());
    if (order == pasap_order::topological && reversed_topo != nullptr)
        for (node_id v : *reversed_topo) orders_[1].push_back(v.value());
}

bool window_engine::load(const module_assignment& assignment, double max_power,
                         std::string* reason)
{
    // Operators whose module changed since the last call are validated
    // in id order, with the checks every reference call makes; the first
    // unusable one ends the sync.
    int bad = n_;
    bool changed = false;
    for (int v = 0; v < n_; ++v) {
        const std::size_t i = static_cast<std::size_t>(v);
        const module_id m = assignment[i];
        if (m == module_[i] && m.valid()) continue;
        if (!m.valid() || m.value() >= lib_.size() ||
            !lib_.modules()[m.index()].supports(g_.kind(node_id(v)))) {
            bad = v;
            break;
        }
        const fu_module& fm = lib_.modules()[m.index()];
        if (fm.latency != delay_[i]) {
            total_delay_ += fm.latency - delay_[i];
            delay_[i] = fm.latency;
            stale_[0] = stale_[1] = true;
        }
        power_[i] = fm.power;
        module_[i] = m;
        changed = true;
    }
    if (changed) max_power_ = *std::max_element(power_.begin(), power_.end());

    const cap_test cap(max_power);
    const auto over_cap = [&](int v) {
        if (reason != nullptr)
            *reason = strf("operator '%s' needs %.3f power per cycle, cap is %.3f",
                           label(v).c_str(), power_[static_cast<std::size_t>(v)], max_power);
        return false;
    };
    if (bad < n_) {
        // The reference meets the operators before the unusable one first.
        for (int v = 0; v < bad; ++v)
            if (cap.over(power_[static_cast<std::size_t>(v)])) return over_cap(v);
        const fu_module& fm = lib_.module(assignment[static_cast<std::size_t>(bad)]);
        throw error("module '" + fm.name + "' cannot execute '" + label(bad) + "'");
    }
    // One test of the largest power answers for every operator and
    // records the span one test per operator would; only an over-cap
    // answer needs the first offender in id order.
    if (n_ > 0 && cap.over(max_power_))
        for (int v = 0; v < n_; ++v)
            if (cap.over(power_[static_cast<std::size_t>(v)])) return over_cap(v);
    return true;
}

const std::vector<int>& window_engine::pick_order(bool reversed)
{
    std::vector<int>& order = orders_[reversed ? 1 : 0];
    if (order_ == pasap_order::topological) {
        if (!reversed) return topo_;
        if (order.empty() && n_ > 0)
            for (node_id v : reversed_graph(g_).topo_order()) order.push_back(v.value());
        return order;
    }
    if (!stale_[reversed ? 1 : 0]) return order;
    // Critical path: the longest delay-weighted path to a sink of the
    // pass's graph, highest first, ties by id (see pasap.h).
    priority_.assign(static_cast<std::size_t>(n_), 0);
    const std::vector<int>& off = reversed ? pred_off_ : succ_off_;
    const std::vector<int>& adj = reversed ? pred_ : succ_;
    for (int k = 0; k < n_; ++k) {
        const int v = topo_[static_cast<std::size_t>(reversed ? k : n_ - 1 - k)];
        long below = 0;
        for (int j = off[v]; j < off[v + 1]; ++j)
            below = std::max(below, priority_[static_cast<std::size_t>(adj[j])]);
        priority_[static_cast<std::size_t>(v)] = below + delay_[static_cast<std::size_t>(v)];
    }
    order.resize(static_cast<std::size_t>(n_));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        const long pa = priority_[static_cast<std::size_t>(a)];
        const long pb = priority_[static_cast<std::size_t>(b)];
        return pa != pb ? pa > pb : a < b;
    });
    stale_[reversed ? 1 : 0] = false;
    return order;
}

bool window_engine::run(bool reversed, const int* fixed, double max_power, std::string* reason)
{
    // The reversed graph's successors are the producers, its producers
    // the successors.
    const std::vector<int>& succ_off = reversed ? pred_off_ : succ_off_;
    const std::vector<int>& succ = reversed ? pred_ : succ_;
    const std::vector<int>& pred_off = reversed ? succ_off_ : pred_off_;
    const std::vector<int>& pred = reversed ? succ_ : pred_;
    const auto d = [&](int v) { return delay_[static_cast<std::size_t>(v)]; };
    const auto p = [&](int v) { return power_[static_cast<std::size_t>(v)]; };

    std::fill(start_.begin(), start_.end(), -1);
    ledger_.reset(max_power);
    free_ = n_;
    int max_fixed_finish = 0;
    if (fixed != nullptr) {
        for (int v = 0; v < n_; ++v) {
            const int f = fixed[v];
            if (f < 0) continue;
            --free_;
            if (!ledger_.fits(f, d(v), p(v))) {
                if (reason != nullptr)
                    *reason = "committed reservations exceed the power cap at operator '" +
                              label(v) + "'";
                return false;
            }
            ledger_.reserve(f, d(v), p(v));
            start_[static_cast<std::size_t>(v)] = f;
            max_fixed_finish = std::max(max_fixed_finish, f + d(v));
        }
        // Committed operations must already respect precedence among
        // themselves (a later module change can stretch a delay past a
        // committed successor).
        for (int v = 0; v < n_; ++v) {
            if (fixed[v] < 0) continue;
            for (int k = succ_off[v]; k < succ_off[v + 1]; ++k) {
                const int s = succ[k];
                if (fixed[s] >= 0 && fixed[v] + d(v) > fixed[s]) {
                    if (reason != nullptr)
                        *reason = strf("committed operator '%s' (finish %d) overlaps "
                                       "committed successor '%s' (start %d)",
                                       label(v).c_str(), fixed[v] + d(v), label(s).c_str(),
                                       fixed[s]);
                    return false;
                }
            }
        }
    }
    if (free_ == 0) return true;

    const long horizon = total_delay_ + max_fixed_finish + n_ + 2;
    for (const int v : pick_order(reversed)) {
        if (fixed != nullptr && fixed[v] >= 0) continue;
        int ready = 0;
        for (int k = pred_off[v]; k < pred_off[v + 1]; ++k)
            ready = std::max(ready, start_[static_cast<std::size_t>(pred[k])] + d(pred[k]));
        // Every operator's power fits the cap (load() checked), so a
        // slot always exists; past the horizon the pass gives up as the
        // reference's linear probe does.
        const int t = ledger_.next_fit(ready, d(v), p(v));
        if (t > horizon) {
            if (reason != nullptr)
                *reason = "internal: no power-feasible slot below horizon for '" + label(v) + "'";
            return false;
        }
        ledger_.reserve(t, d(v), p(v));
        start_[static_cast<std::size_t>(v)] = t;
        // A committed successor that would now start before this
        // operator finishes: the paper's "deletion of unscheduled
        // operators" event.
        if (fixed == nullptr) continue;
        for (int k = succ_off[v]; k < succ_off[v + 1]; ++k) {
            const int s = succ[k];
            if (fixed[s] >= 0 && t + d(v) > fixed[s]) {
                if (reason != nullptr)
                    *reason = strf("operator '%s' finishes at %d, after committed successor "
                                   "'%s' starts (%d)",
                                   label(v).c_str(), t + d(v), label(s).c_str(), fixed[s]);
                return false;
            }
        }
    }
    return true;
}

void window_engine::windows(const module_assignment& assignment, double max_power, int latency,
                            const std::vector<int>& fixed, time_windows& out)
{
    out.feasible = false;
    out.reason.clear();
    out.s_min.clear();
    out.s_max.clear();
    check(static_cast<int>(assignment.size()) == n_, "assignment size does not match graph");
    check(fixed.empty() || static_cast<int>(fixed.size()) == n_,
          "fixed_starts size does not match graph");
    const int* const committed = fixed.empty() ? nullptr : fixed.data();
    std::string why;
    if (!load(assignment, max_power, &why) || !run(false, committed, max_power, &why)) {
        out.reason = "pasap: " + why;
        return;
    }
    int finish = 0;
    for (std::size_t v = 0; v < start_.size(); ++v)
        finish = std::max(finish, start_[v] + delay_[v]);
    if (finish > latency) {
        out.reason = strf("pasap schedule needs %d cycles, latency bound is %d", finish, latency);
        return;
    }
    out.s_min.assign(start_.begin(), start_.end());
    check(latency >= 1, "palap needs a positive latency bound");
    out.feasible = true;

    // The reference palap repeats pasap's module checks and cap tests on
    // the same values, then reserves the same commitments in the same id
    // order on the reversed clock: its cycle c sums what cycle
    // latency-1-c sums here, so it makes the same cap tests and checks
    // the same precedence pairs.  With no operator free it places
    // nothing, so every s_max equals s_min.
    bool palap_ok = free_ > 0;
    if (palap_ok && committed != nullptr) {
        // Cannot fail: every commitment finishes by `finish`.
        to_reversed_clock(g_, fixed, latency, [&](std::size_t v) { return delay_[v]; },
                          rfixed_, nullptr);
    }
    palap_ok = palap_ok && run(true, committed ? rfixed_.data() : nullptr, max_power, nullptr);
    if (!palap_ok) {
        out.s_max = out.s_min;
        return;
    }
    out.s_max.resize(static_cast<std::size_t>(n_));
    for (int v = 0; v < n_; ++v) {
        const std::size_t i = static_cast<std::size_t>(v);
        const int s = latency - start_[i] - delay_[i];
        if (s < 0) { // palap overran the bound: every window degenerates
            out.s_max = out.s_min;
            return;
        }
        out.s_max[i] = std::max(out.s_min[i], s);
    }
}

pasap_result window_engine::pasap(const module_assignment& assignment, double max_power,
                                  const std::vector<int>& fixed)
{
    check(static_cast<int>(assignment.size()) == n_, "assignment size does not match graph");
    check(fixed.empty() || static_cast<int>(fixed.size()) == n_,
          "fixed_starts size does not match graph");
    pasap_result result;
    result.sched = schedule(n_);
    for (node_id v : g_.node_ids()) result.sched.set_module(v, assignment[v.index()]);
    if (!load(assignment, max_power, &result.reason)) return result;
    result.feasible = run(false, fixed.empty() ? nullptr : fixed.data(), max_power, &result.reason);
    // A failed pass leaves the starts it placed, as the reference does.
    for (node_id v : g_.node_ids())
        if (start_[v.index()] >= 0) result.sched.set_start(v, start_[v.index()]);
    return result;
}

pasap_result window_engine::palap(const module_assignment& assignment, double max_power,
                                  int latency, const std::vector<int>& fixed)
{
    check(latency >= 1, "palap needs a positive latency bound");
    check(static_cast<int>(assignment.size()) == n_, "assignment size does not match graph");
    pasap_result result;
    result.sched = schedule(n_);
    for (node_id v : g_.node_ids()) result.sched.set_module(v, assignment[v.index()]);
    if (!fixed.empty()) {
        check(static_cast<int>(fixed.size()) == n_, "fixed_starts size does not match graph");
        // Converted before any module check, as the reference does.
        const auto delay = [&](std::size_t v) { return lib_.module(assignment[v]).latency; };
        if (!to_reversed_clock(g_, fixed, latency, delay, rfixed_, &result.reason))
            return result;
    }
    std::string why;
    if (!load(assignment, max_power, &why) ||
        !run(true, fixed.empty() ? nullptr : rfixed_.data(), max_power, &why)) {
        result.reason = "reversed pasap: " + why;
        return result;
    }
    for (node_id v : g_.node_ids()) {
        const int s = latency - start_[v.index()] - delay_[v.index()];
        if (s < 0) {
            result.reason = strf("operator '%s' cannot fit within latency %d under the "
                                 "power cap",
                                 g_.label(v).c_str(), latency);
            return result;
        }
        result.sched.set_start(v, s);
    }
    result.feasible = true;
    return result;
}

std::vector<int> constrained_earliest(const graph& g, const module_library& lib,
                                      const module_assignment& assignment,
                                      const std::vector<int>& fixed)
{
    const int n = g.node_count();
    check(static_cast<int>(assignment.size()) == n, "assignment size does not match graph");
    check(fixed.empty() || static_cast<int>(fixed.size()) == n,
          "fixed size does not match graph");
    std::vector<int> start(static_cast<std::size_t>(n), 0);
    for (node_id v : g.topo_order()) {
        int t = 0;
        for (node_id p : g.preds(v))
            t = std::max(t, start[p.index()] + lib.module(assignment[p.index()]).latency);
        if (!fixed.empty() && fixed[v.index()] >= 0) {
            if (fixed[v.index()] < t) return {}; // pin violates a dependency
            t = fixed[v.index()];
        }
        start[v.index()] = t;
    }
    return start;
}

std::vector<int> constrained_latest(const graph& g, const module_library& lib,
                                    const module_assignment& assignment, int latency,
                                    const std::vector<int>& fixed)
{
    const int n = g.node_count();
    check(static_cast<int>(assignment.size()) == n, "assignment size does not match graph");
    check(fixed.empty() || static_cast<int>(fixed.size()) == n,
          "fixed size does not match graph");
    std::vector<int> start(static_cast<std::size_t>(n), 0);
    const std::vector<node_id> order = g.topo_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const node_id v = *it;
        const int d = lib.module(assignment[v.index()]).latency;
        int t = latency - d;
        for (node_id s : g.succs(v)) t = std::min(t, start[s.index()] - d);
        if (!fixed.empty() && fixed[v.index()] >= 0) {
            if (fixed[v.index()] > t) return {};
            t = fixed[v.index()];
        }
        if (t < 0) return {};
        start[v.index()] = t;
    }
    // A pinned op may also be unreachable from below: verify pins held.
    if (!fixed.empty())
        for (node_id v : g.node_ids())
            if (fixed[v.index()] >= 0 && start[v.index()] != fixed[v.index()]) return {};
    return start;
}

time_windows classic_windows(const graph& g, const module_library& lib,
                             const module_assignment& assignment, int latency,
                             const std::vector<int>& fixed_starts)
{
    time_windows w;
    const std::vector<int> lo = constrained_earliest(g, lib, assignment, fixed_starts);
    if (lo.empty()) {
        w.reason = "pinned operator violates a data dependency";
        return w;
    }
    const std::vector<int> hi = constrained_latest(g, lib, assignment, latency, fixed_starts);
    if (hi.empty()) {
        w.reason = strf("latency bound %d is below the critical path", latency);
        return w;
    }
    for (node_id v : g.node_ids()) {
        if (lo[v.index()] > hi[v.index()]) {
            w.reason = strf("operator '%s' has crossing window [%d, %d]",
                            g.label(v).c_str(), lo[v.index()], hi[v.index()]);
            return w;
        }
    }
    w.s_min = lo;
    w.s_max = hi;
    w.feasible = true;
    return w;
}

} // namespace phls
