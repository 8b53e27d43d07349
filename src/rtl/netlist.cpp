#include "rtl/netlist.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "support/errors.h"
#include "support/strings.h"

namespace phls {

netlist build_netlist(const std::string& design_name, const graph& g,
                      const module_library& lib, const schedule& s,
                      const std::vector<int>& instance_of,
                      const std::vector<module_id>& instance_modules)
{
    check(s.complete(), "netlist needs a complete schedule");
    check(static_cast<int>(instance_of.size()) == g.node_count(),
          "instance_of size does not match graph");

    netlist nl;
    nl.design_name = design_name;

    nl.fus.resize(instance_modules.size());
    for (std::size_t i = 0; i < instance_modules.size(); ++i) {
        nl.fus[i].index = static_cast<int>(i);
        nl.fus[i].module = instance_modules[i];
    }
    for (node_id v : g.nodes()) {
        const int inst = instance_of[v.index()];
        if (inst < 0 || inst >= static_cast<int>(nl.fus.size()))
            throw error("node '" + g.label(v) + "' bound to invalid instance");
        if (instance_modules[static_cast<std::size_t>(inst)] != s.module_of(v))
            throw error("node '" + g.label(v) + "' module disagrees with its instance");
        nl.fus[static_cast<std::size_t>(inst)].ops.push_back(v);
    }
    for (netlist::fu& f : nl.fus)
        std::sort(f.ops.begin(), f.ops.end(),
                  [&](node_id a, node_id b) { return s.start(a) < s.start(b); });

    const std::vector<value_lifetime> lifetimes = compute_value_lifetimes(g, lib, s);
    const regalloc_result regs = left_edge_allocate(lifetimes);
    nl.registers.resize(static_cast<std::size_t>(regs.register_count));
    for (int r = 0; r < regs.register_count; ++r)
        nl.registers[static_cast<std::size_t>(r)].index = r;

    std::map<int, std::pair<bool, int>> source_of_producer;
    for (std::size_t i = 0; i < lifetimes.size(); ++i) {
        const int reg = regs.register_of[i];
        if (reg >= 0) {
            nl.registers[static_cast<std::size_t>(reg)].values.push_back(
                lifetimes[i].producer);
            source_of_producer[lifetimes[i].producer.value()] = {true, reg};
        } else {
            source_of_producer[lifetimes[i].producer.value()] = {
                false, instance_of[lifetimes[i].producer.index()]};
        }
    }

    std::set<std::tuple<int, int, bool, int>> seen;
    for (node_id v : g.nodes()) {
        if (g.kind(v) == op_kind::input) continue;
        const int inst = instance_of[v.index()];
        const std::vector<node_id>& operands = g.preds(v);
        for (std::size_t port = 0; port < operands.size(); ++port) {
            const auto src = source_of_producer.at(operands[port].value());
            if (seen.insert({inst, static_cast<int>(port), src.first, src.second}).second)
                nl.connections.push_back(
                    {inst, static_cast<int>(port), src.first, src.second});
        }
    }
    return nl;
}

std::string netlist_to_text(const netlist& nl, const graph& g, const module_library& lib)
{
    std::ostringstream os;
    os << "design " << nl.design_name << '\n';
    for (const netlist::fu& f : nl.fus) {
        os << strf("fu u%d %s ops:", f.index, lib.module(f.module).name.c_str());
        for (node_id v : f.ops) os << ' ' << g.label(v);
        os << '\n';
    }
    for (const netlist::storage& r : nl.registers) {
        os << strf("reg r%d values:", r.index);
        for (node_id v : r.values) os << ' ' << g.label(v);
        os << '\n';
    }
    for (const netlist::connection& c : nl.connections)
        os << strf("connect %s%d -> u%d.port%d\n", c.from_register ? "r" : "u",
                   c.source_index, c.fu_index, c.port);
    return os.str();
}

std::string netlist_to_verilog(const netlist& nl, const graph& g, const module_library& lib)
{
    std::ostringstream os;
    os << "// Structural skeleton generated by phls; data width abstracted as W.\n";
    os << "module " << nl.design_name << " #(parameter W = 16) (input clk);\n";
    for (const netlist::storage& r : nl.registers) {
        os << strf("  reg [W-1:0] r%d; // holds:", r.index);
        for (node_id v : r.values) os << ' ' << g.label(v);
        os << '\n';
    }
    for (const netlist::fu& f : nl.fus) {
        os << strf("  wire [W-1:0] u%d_out; // %s:", f.index,
                   lib.module(f.module).name.c_str());
        for (node_id v : f.ops) os << ' ' << g.label(v);
        os << '\n';
    }
    // Group connections per (fu, port) to emit mux summaries.
    std::map<std::pair<int, int>, std::vector<const netlist::connection*>> per_port;
    for (const netlist::connection& c : nl.connections)
        per_port[{c.fu_index, c.port}].push_back(&c);
    for (const auto& [key, conns] : per_port) {
        os << strf("  // u%d.port%d <= %zu-way mux of {", key.first, key.second,
                   conns.size());
        for (std::size_t i = 0; i < conns.size(); ++i) {
            if (i) os << ", ";
            os << (conns[i]->from_register ? "r" : "u") << conns[i]->source_index
               << (conns[i]->from_register ? "" : "_out");
        }
        os << "}\n";
    }
    os << "endmodule\n";
    return os.str();
}

} // namespace phls
