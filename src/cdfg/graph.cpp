#include "cdfg/graph.h"

#include <algorithm>
#include <queue>

#include "support/errors.h"
#include "support/strings.h"

namespace phls {

namespace {

/// Smallest power-of-two slot count that keeps `nodes` labels at most
/// half full.
std::size_t slots_for(std::size_t nodes)
{
    std::size_t slots = 8;
    while (slots < 2 * nodes) slots *= 2;
    return slots;
}

} // namespace

std::size_t graph::label_slot(std::string_view label) const
{
    const std::size_t mask = labels_.size() - 1;
    const std::uint64_t h = fnv1a(label);
    for (std::size_t i = static_cast<std::size_t>(h ^ (h >> 32)) & mask;; i = (i + 1) & mask) {
        const int id = labels_[i];
        if (id < 0 || nodes_[static_cast<std::size_t>(id)].label == label) return i;
    }
}

void graph::rehash(std::size_t slots)
{
    labels_.assign(slots, -1);
    for (int i = 0; i < node_count(); ++i)
        labels_[label_slot(nodes_[static_cast<std::size_t>(i)].label)] = i;
}

void graph::reserve(int nodes)
{
    const std::size_t n = static_cast<std::size_t>(std::max(nodes, 0));
    nodes_.reserve(n);
    if (slots_for(n) > labels_.size()) rehash(slots_for(n));
}

node_id graph::add_node(op_kind kind, std::string_view label)
{
    check(!label.empty(), "node label must be non-empty");
    if (find(label)) throw error("duplicate node label '" + std::string(label) + "'");
    const int id = node_count();
    nodes_.push_back(node{kind, std::string(label), {}, {}});
    if (slots_for(nodes_.size()) > labels_.size())
        rehash(slots_for(nodes_.size()));
    else
        labels_[label_slot(label)] = id;
    return node_id(id);
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

std::optional<node_id> graph::find(std::string_view label) const
{
    if (labels_.empty()) return std::nullopt;
    const int id = labels_[label_slot(label)];
    if (id < 0) return std::nullopt;
    return node_id(id);
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
