#include "cdfg/graph.h"

#include <algorithm>
#include <queue>

#include "support/errors.h"

namespace phls {

node_id graph::add_node(op_kind kind, const std::string& label)
{
    check(!label.empty(), "node label must be non-empty");
    if (find(label)) throw error("duplicate node label '" + label + "'");
    nodes_.push_back(node{kind, label, {}, {}});
    return node_id(static_cast<int>(nodes_.size()) - 1);
}

void graph::add_edge(node_id from, node_id to)
{
    if (from == to) throw error("self-loop on node '" + at(from).label + "'");
    at(from).succs.push_back(to);
    at(to).preds.push_back(from);
    ++edge_count_;
}

std::vector<node_id> graph::nodes() const
{
    std::vector<node_id> out;
    out.reserve(nodes_.size());
    for (int i = 0; i < node_count(); ++i) out.push_back(node_id(i));
    return out;
}

std::optional<node_id> graph::find(const std::string& label) const
{
    for (int i = 0; i < node_count(); ++i)
        if (nodes_[static_cast<std::size_t>(i)].label == label) return node_id(i);
    return std::nullopt;
}

std::vector<node_id> graph::nodes_of_kind(op_kind k) const
{
    std::vector<node_id> out;
    for (int i = 0; i < node_count(); ++i)
        if (nodes_[static_cast<std::size_t>(i)].kind == k) out.push_back(node_id(i));
    return out;
}

int graph::count_of_kind(op_kind k) const
{
    int count = 0;
    for (const node& nd : nodes_)
        if (nd.kind == k) ++count;
    return count;
}

bool graph::is_acyclic() const
{
    // Kahn's algorithm: the graph is acyclic iff all nodes drain.
    std::vector<int> indegree(static_cast<std::size_t>(node_count()), 0);
    for (int i = 0; i < node_count(); ++i)
        indegree[static_cast<std::size_t>(i)] =
            static_cast<int>(nodes_[static_cast<std::size_t>(i)].preds.size());

    std::queue<int> ready;
    for (int i = 0; i < node_count(); ++i)
        if (indegree[static_cast<std::size_t>(i)] == 0) ready.push(i);
    int drained = 0;
    while (!ready.empty()) {
        const int v = ready.front();
        ready.pop();
        ++drained;
        for (node_id s : nodes_[static_cast<std::size_t>(v)].succs)
            if (--indegree[s.index()] == 0) ready.push(s.value());
    }
    return drained == node_count();
}

std::vector<node_id> graph::topo_order() const
{
    std::vector<int> indegree(static_cast<std::size_t>(node_count()), 0);
    for (int i = 0; i < node_count(); ++i)
        indegree[static_cast<std::size_t>(i)] =
            static_cast<int>(nodes_[static_cast<std::size_t>(i)].preds.size());

    // Min-heap over node ids gives a deterministic order independent of
    // insertion history.
    std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
    for (int i = 0; i < node_count(); ++i)
        if (indegree[static_cast<std::size_t>(i)] == 0) ready.push(i);

    std::vector<node_id> order;
    order.reserve(nodes_.size());
    while (!ready.empty()) {
        const int v = ready.top();
        ready.pop();
        order.push_back(node_id(v));
        for (node_id s : nodes_[static_cast<std::size_t>(v)].succs)
            if (--indegree[s.index()] == 0) ready.push(s.value());
    }
    if (static_cast<int>(order.size()) != node_count())
        throw error("graph '" + name_ + "' contains a cycle");
    return order;
}

void graph::validate() const
{
    if (!is_acyclic()) throw error("graph '" + name_ + "' contains a cycle");
    for (int i = 0; i < node_count(); ++i) {
        const node& nd = nodes_[static_cast<std::size_t>(i)];
        const int np = static_cast<int>(nd.preds.size());
        const int ns = static_cast<int>(nd.succs.size());
        const char* bad = nullptr;
        switch (nd.kind) {
        case op_kind::input:
            if (np != 0) bad = "input must have no predecessors";
            break;
        case op_kind::output:
            if (np != 1) bad = "output must have exactly one predecessor";
            else if (ns != 0) bad = "output must have no successors";
            break;
        default:
            if (np < 1 || np > 2) bad = "binary operation must have one or two predecessors";
            else if (ns < 1) bad = "operation result is never consumed";
            break;
        }
        if (bad) throw error("node '" + nd.label + "' in graph '" + name_ + "': " + bad);
    }
}

} // namespace phls
