#include "synth/arena.h"

#include <algorithm>
#include <climits>

#include "support/errors.h"

namespace phls {

void synth_arena::build(const graph& g, const module_library& lib)
{
    n_ = g.node_count();
    const std::size_t n = static_cast<std::size_t>(n_);

    kind_.resize(n);
    pred_off_.assign(n + 1, 0);
    succ_off_.assign(n + 1, 0);
    for (node_id v : g.node_ids()) {
        kind_[v.index()] = op_kind_index(g.kind(v));
        pred_off_[v.index() + 1] = static_cast<int>(g.preds(v).size());
        succ_off_[v.index() + 1] = static_cast<int>(g.succs(v).size());
    }
    for (std::size_t i = 1; i <= n; ++i) {
        pred_off_[i] += pred_off_[i - 1];
        succ_off_[i] += succ_off_[i - 1];
    }
    pred_adj_.resize(static_cast<std::size_t>(pred_off_[n]));
    succ_adj_.resize(static_cast<std::size_t>(succ_off_[n]));
    for (node_id v : g.node_ids()) {
        int pe = pred_off_[v.index()];
        for (node_id p : g.preds(v)) pred_adj_[static_cast<std::size_t>(pe++)] = p.value();
        int se = succ_off_[v.index()];
        for (node_id s : g.succs(v)) succ_adj_[static_cast<std::size_t>(se++)] = s.value();
    }

    mod_latency_.resize(static_cast<std::size_t>(lib.size()));
    mod_area_.resize(static_cast<std::size_t>(lib.size()));
    for (int mi = 0; mi < lib.size(); ++mi) {
        mod_latency_[static_cast<std::size_t>(mi)] = lib.module(module_id(mi)).latency;
        mod_area_[static_cast<std::size_t>(mi)] = lib.module(module_id(mi)).area;
    }
    support_.assign(static_cast<std::size_t>(op_kind_count), {});
    for (const op_kind k : all_op_kinds()) {
        std::vector<mod_fit>& mods = support_[static_cast<std::size_t>(op_kind_index(k))];
        // Library order, exactly the iteration order of the reference
        // standalone_area loop.
        for (const fu_module& m : lib.modules())
            if (m.supports(k)) mods.push_back({m.latency, m.area, m.power});
    }
    screened_ = false;
}

void synth_arena::sync(const compat_inputs& in)
{
    check(n_ == in.g->node_count(), "synth_arena: graph changed under the arena");
    const std::size_t n = static_cast<std::size_t>(n_);
    const std::vector<int>& fixed = *in.fixed;
    const time_windows& w = *in.windows;
    const module_assignment& assign = *in.assignment;

    // Power screen per kind: the cap is fixed for the whole run, so this
    // triggers once.  The comparison is the exact precheck of the
    // reference standalone_area loop.
    if (!screened_ || screened_cap_ != in.max_power) {
        const cap_test cap(in.max_power);
        feasible_.assign(support_.size(), {});
        for (std::size_t k = 0; k < support_.size(); ++k)
            for (const mod_fit& m : support_[k])
                if (!cap.over(m.power)) feasible_[k].push_back(m);
        screened_cap_ = in.max_power;
        screened_ = true;
    }

    earliest_.resize(n);
    latest_.resize(n);
    delay_.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
        const int f = fixed[v];
        earliest_[v] = f >= 0 ? f : w.s_min[v];
        latest_[v] = f >= 0 ? f : w.s_max[v];
        delay_[v] = mod_latency_[static_cast<std::size_t>(assign[v].value())];
    }

    pred_bound_.assign(n, INT_MIN);
    succ_latest_.assign(n, INT_MAX);
    for (std::size_t v = 0; v < n; ++v) {
        for (int e = pred_off_[v]; e < pred_off_[v + 1]; ++e) {
            const std::size_t p = static_cast<std::size_t>(pred_adj_[static_cast<std::size_t>(e)]);
            pred_bound_[v] = std::max(pred_bound_[v], earliest_[p] + delay_[p]);
        }
        for (int e = succ_off_[v]; e < succ_off_[v + 1]; ++e) {
            const std::size_t s = static_cast<std::size_t>(succ_adj_[static_cast<std::size_t>(e)]);
            succ_latest_[v] = std::min(succ_latest_[v], latest_[s]);
        }
    }

    // Standalone areas: the same (power, latency-budget, min-area) fold
    // as the reference, over the power-screened per-kind list.  min is
    // order- and grouping-independent over exact doubles, so caching is
    // value-identical.
    standalone_.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
        const int mobility = fixed[v] >= 0 ? 0 : w.s_max[v] - w.s_min[v];
        const int budget = delay_[v] + mobility;
        double best = -1.0;
        for (const mod_fit& m : feasible_[static_cast<std::size_t>(kind_[v])]) {
            if (m.latency > budget) continue;
            if (best < 0.0 || m.area < best) best = m.area;
        }
        if (best < 0.0) best = mod_area_[static_cast<std::size_t>(assign[v].value())];
        standalone_[v] = best;
    }
}

} // namespace phls
