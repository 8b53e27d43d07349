#include "rtl/interconnect.h"

#include <map>
#include <set>

#include "support/errors.h"

namespace phls {

interconnect_stats estimate_interconnect(const graph& g, const module_library& lib,
                                         const schedule& s,
                                         const std::vector<int>& instance_of,
                                         const cost_model& costs)
{
    check(static_cast<int>(instance_of.size()) == g.node_count(),
          "instance_of size does not match graph");

    const std::vector<value_lifetime> lifetimes = compute_value_lifetimes(g, lib, s);
    const regalloc_result regs = left_edge_allocate(lifetimes);

    // Source of each produced value as seen by consumers: its register if
    // stored, otherwise the producing instance (combinational forward).
    // Encoded as (is_register, index) pairs.
    std::map<int, std::pair<bool, int>> source_of_producer;
    for (std::size_t i = 0; i < lifetimes.size(); ++i) {
        const int reg = regs.register_of[i];
        if (reg >= 0)
            source_of_producer[lifetimes[i].producer.value()] = {true, reg};
        else
            source_of_producer[lifetimes[i].producer.value()] = {
                false, instance_of[lifetimes[i].producer.index()]};
    }

    // Distinct sources per (instance, port).
    std::map<std::pair<int, int>, std::set<std::pair<bool, int>>> port_sources;
    for (node_id v : g.nodes()) {
        if (g.kind(v) == op_kind::input) continue; // inputs read from outside
        const int inst = instance_of[v.index()];
        const std::vector<node_id>& operands = g.preds(v);
        for (std::size_t port = 0; port < operands.size(); ++port) {
            const auto src = source_of_producer.find(operands[port].value());
            if (src == source_of_producer.end())
                throw error("operand of '" + g.label(v) + "' has no recorded source");
            port_sources[{inst, static_cast<int>(port)}].insert(src->second);
        }
    }

    interconnect_stats stats;
    stats.register_count = regs.register_count;
    for (const auto& [port, sources] : port_sources)
        stats.mux_extra_inputs += static_cast<int>(sources.size()) - 1;
    if (costs.include_interconnect) {
        stats.register_area = costs.register_area * stats.register_count;
        stats.mux_area = costs.mux_area_per_extra_input * stats.mux_extra_inputs;
    }
    return stats;
}

} // namespace phls
