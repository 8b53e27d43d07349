#include "cdfg/textio.h"

#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "support/errors.h"
#include "support/strings.h"

namespace phls {

graph parse_cdfg(std::istream& is) { return parse_cdfg_string(read_all(is)); }

graph parse_cdfg_string(std::string_view text)
{
    // Two phases, so that an edge may name a node declared further down:
    // read every directive, then build the graph, reporting duplicate
    // labels before unknown edge endpoints before validate()'s findings.
    std::string_view name = "unnamed";
    struct pending_node {
        std::string_view label;
        op_kind kind;
    };
    struct pending_edge {
        std::string_view from, to;
        int line;
    };
    std::vector<pending_node> nodes;
    std::vector<pending_edge> edges;
    bool saw_header = false;
    for_each_line(text, [&](const std::vector<std::string_view>& tok, int line) {
        if (tok[0] == "cdfg") {
            check(tok.size() == 2, "expected: cdfg <name>");
            name = tok[1];
            saw_header = true;
        } else if (tok[0] == "node") {
            check(tok.size() == 3, "expected: node <label> <kind>");
            nodes.push_back({tok[1], parse_op_kind(tok[2])});
        } else if (tok[0] == "edge") {
            check(tok.size() == 3, "expected: edge <from> <to>");
            edges.push_back({tok[1], tok[2], line});
        } else {
            throw error("unknown directive '" + std::string(tok[0]) + "'");
        }
    });
    check(saw_header, "missing 'cdfg <name>' header");

    graph g{std::string(name)};
    g.reserve(static_cast<int>(nodes.size()));
    for (const pending_node& n : nodes) g.add_node(n.kind, n.label);
    for (const pending_edge& e : edges) {
        const std::optional<node_id> from = g.find(e.from);
        const std::optional<node_id> to = g.find(e.to);
        if (!from)
            throw parse_error("edge references unknown node '" + std::string(e.from) + "'", e.line);
        if (!to)
            throw parse_error("edge references unknown node '" + std::string(e.to) + "'", e.line);
        g.add_edge(*from, *to);
    }
    g.validate();
    return g;
}

void write_cdfg(const graph& g, std::ostream& os)
{
    os << "cdfg " << g.name() << '\n';
    for (node_id v : g.nodes())
        os << "node " << g.label(v) << ' ' << op_kind_name(g.kind(v)) << '\n';
    for (node_id v : g.nodes())
        for (node_id s : g.succs(v)) os << "edge " << g.label(v) << ' ' << g.label(s) << '\n';
}

std::string write_cdfg_string(const graph& g)
{
    std::ostringstream os;
    write_cdfg(g, os);
    return os.str();
}

} // namespace phls
