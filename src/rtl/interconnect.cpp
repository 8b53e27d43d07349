#include "rtl/interconnect.h"

#include <algorithm>
#include <array>

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
    struct source {
        bool recorded = false;
        bool is_register = false;
        int index = 0;
    };
    std::vector<source> source_of(static_cast<std::size_t>(g.node_count()));
    for (std::size_t i = 0; i < lifetimes.size(); ++i) {
        const int reg = regs.register_of[i];
        const std::size_t producer = lifetimes[i].producer.index();
        source_of[producer] = reg >= 0 ? source{true, true, reg}
                                       : source{true, false, instance_of[producer]};
    }

    // Distinct (instance, port, source) tuples: a port driven by k
    // distinct sources needs k - 1 extra mux inputs.
    std::vector<std::array<int, 4>> port_sources;
    for (node_id v : g.node_ids()) {
        if (g.kind(v) == op_kind::input) continue; // inputs read from outside
        const int inst = instance_of[v.index()];
        const std::vector<node_id>& operands = g.preds(v);
        for (std::size_t port = 0; port < operands.size(); ++port) {
            const source& src = source_of[operands[port].index()];
            if (!src.recorded)
                throw error("operand of '" + g.label(v) + "' has no recorded source");
            port_sources.push_back(
                {inst, static_cast<int>(port), src.is_register ? 1 : 0, src.index});
        }
    }
    std::sort(port_sources.begin(), port_sources.end());
    port_sources.erase(std::unique(port_sources.begin(), port_sources.end()), port_sources.end());
    int ports = 0;
    for (std::size_t i = 0; i < port_sources.size(); ++i)
        if (i == 0 || port_sources[i][0] != port_sources[i - 1][0] ||
            port_sources[i][1] != port_sources[i - 1][1])
            ++ports;

    interconnect_stats stats;
    stats.register_count = regs.register_count;
    stats.mux_extra_inputs = static_cast<int>(port_sources.size()) - ports;
    if (costs.include_interconnect) {
        stats.register_area = costs.register_area * stats.register_count;
        stats.mux_area = costs.mux_area_per_extra_input * stats.mux_extra_inputs;
    }
    return stats;
}

} // namespace phls
