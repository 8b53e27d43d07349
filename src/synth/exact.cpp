#include "synth/exact.h"

#include <algorithm>

#include "power/tracker.h"
#include "support/errors.h"
#include "synth/verify.h"

namespace phls {

namespace {

struct op_state {
    module_id module;
    int start = -1;
    int instance = -1;
};

struct instance_state {
    module_id module;
    std::vector<std::pair<int, int>> busy; // committed [start, end)
};

class searcher {
public:
    searcher(const graph& g, const module_library& lib,
             const synthesis_constraints& constraints, const exact_options& options)
        : g_(g), lib_(lib), constraints_(constraints), options_(options),
          order_(g.topo_order()), tracker_(constraints.max_power),
          states_(static_cast<std::size_t>(g.node_count()))
    {
    }

    exact_result run()
    {
        exact_result result;
        best_total_ = std::numeric_limits<double>::infinity();
        exhausted_ = false;
        explored_ = 0;
        descend(0, 0.0);
        result.explored = explored_;
        result.solved = !exhausted_;
        if (best_total_ < std::numeric_limits<double>::infinity()) {
            result.feasible = true;
            result.dp = best_dp_;
            if (exhausted_)
                result.reason = "node limit reached; incumbent may be suboptimal";
        } else {
            result.reason = exhausted_ ? "node limit reached before any design was found"
                                       : "no design satisfies the constraints";
        }
        return result;
    }

private:
    // Remaining-area lower bound: every still-unbound kind that has no
    // already-open instance able to execute it will need at least the
    // cheapest module for that kind.
    double remaining_bound(std::size_t depth) const
    {
        bool kind_needed[op_kind_count] = {};
        for (std::size_t i = depth; i < order_.size(); ++i)
            kind_needed[op_kind_index(g_.kind(order_[i]))] = true;
        double bound = 0.0;
        for (op_kind k : all_op_kinds()) {
            if (!kind_needed[op_kind_index(k)]) continue;
            const bool open = std::any_of(
                instances_.begin(), instances_.end(),
                [&](const instance_state& inst) { return lib_.module(inst.module).supports(k); });
            if (open) continue;
            const std::optional<module_id> cheapest =
                lib_.cheapest_for(k, constraints_.max_power);
            if (cheapest) bound += lib_.module(*cheapest).area;
        }
        return bound;
    }

    void record_leaf()
    {
        datapath dp("exact_" + g_.name(), g_.node_count());
        std::vector<int> inst_map(instances_.size(), -1);
        for (node_id v : order_) {
            const op_state& st = states_[v.index()];
            int& mapped = inst_map[static_cast<std::size_t>(st.instance)];
            if (mapped < 0) mapped = dp.add_instance(instances_[static_cast<std::size_t>(st.instance)].module);
            dp.bind(v, mapped, st.start);
        }
        dp.compute_area(g_, lib_, options_.costs);
        if (dp.area.total() < best_total_) {
            best_total_ = dp.area.total();
            best_dp_ = std::move(dp);
        }
    }

    void descend(std::size_t depth, double fu_area)
    {
        if (exhausted_) return;
        if (++explored_ > options_.node_limit) {
            exhausted_ = true;
            return;
        }
        if (depth == order_.size()) {
            record_leaf();
            return;
        }
        // Admissible prune: committed FU area + remaining bound cannot
        // already exceed the incumbent's *total* (interconnect >= 0).
        if (fu_area + remaining_bound(depth) >= best_total_) return;

        const node_id v = order_[depth];
        const op_kind kind = g_.kind(v);

        const cap_test cap(constraints_.max_power);
        for (module_id m : lib_.candidates_for(kind)) {
            const fu_module& mod = lib_.module(m);
            if (cap.over(mod.power)) continue;
            const int d = mod.latency;

            int ready = 0;
            for (node_id p : g_.preds(v)) {
                const op_state& ps = states_[p.index()];
                ready = std::max(ready,
                                 ps.start + lib_.module(ps.module).latency);
            }
            // Latest start leaving room for the longest chain below v
            // (unit-delay lower bound on successors keeps this admissible).
            const int latest = constraints_.latency - d - depth_below(v);
            for (int t = ready; t <= latest; ++t) {
                if (!tracker_.fits(t, d, mod.power)) continue;

                // Instance choice: any open compatible instance, plus one
                // canonical "new instance" branch (symmetry broken: the
                // new instance is always appended at the back).
                for (int inst = 0; inst <= static_cast<int>(instances_.size()); ++inst) {
                    double added_area = 0.0;
                    if (inst < static_cast<int>(instances_.size())) {
                        instance_state& is = instances_[static_cast<std::size_t>(inst)];
                        if (!(is.module == m)) continue;
                        const bool clash = std::any_of(
                            is.busy.begin(), is.busy.end(),
                            [&](const auto& b) { return t < b.second && b.first < t + d; });
                        if (clash) continue;
                    } else {
                        added_area = mod.area;
                        if (fu_area + added_area + remaining_bound(depth + 1) >= best_total_)
                            continue;
                        instances_.push_back(instance_state{m, {}});
                    }

                    instances_[static_cast<std::size_t>(inst)].busy.emplace_back(t, t + d);
                    tracker_.reserve(t, d, mod.power);
                    states_[v.index()] = op_state{m, t, inst};

                    descend(depth + 1, fu_area + added_area);

                    states_[v.index()] = op_state{};
                    tracker_.release(t, d, mod.power);
                    instances_[static_cast<std::size_t>(inst)].busy.pop_back();
                    if (inst == static_cast<int>(instances_.size()) - 1 &&
                        instances_.back().busy.empty())
                        instances_.pop_back();
                    if (exhausted_) return;
                }
            }
        }
    }

    // Longest unit-delay chain strictly below v (cheap admissible slack
    // bound; memoised).
    int depth_below(node_id v)
    {
        if (depth_below_.empty()) {
            depth_below_.assign(static_cast<std::size_t>(g_.node_count()), 0);
            for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
                int below = 0;
                for (node_id s : g_.succs(*it))
                    below = std::max(below, depth_below_[s.index()] + 1);
                depth_below_[it->index()] = below;
            }
        }
        return depth_below_[v.index()];
    }

    const graph& g_;
    const module_library& lib_;
    synthesis_constraints constraints_;
    exact_options options_;
    std::vector<node_id> order_;
    power_tracker tracker_;
    std::vector<op_state> states_;
    std::vector<instance_state> instances_;
    std::vector<int> depth_below_;
    double best_total_ = 0.0;
    datapath best_dp_;
    long explored_ = 0;
    bool exhausted_ = false;
};

} // namespace

exact_result exact_synthesize(const graph& g, const module_library& lib,
                              const synthesis_constraints& constraints,
                              const exact_options& options)
{
    g.validate();
    lib.check_covers(g);
    check(constraints.latency >= 1, "latency constraint must be positive");
    check(g.node_count() <= options.max_operations,
          "graph too large for exact synthesis (raise exact_options::max_operations)");

    exact_result result = searcher(g, lib, constraints, options).run();
    if (result.feasible)
        check_datapath(g, lib, result.dp, constraints, options.costs);
    return result;
}

} // namespace phls
