// Control/data-flow graph (CDFG) container.
//
// A CDFG is a DAG of operations.  Edges are data dependencies; parallel
// edges are allowed (an operation may consume the same value on both
// operand ports, e.g. x*x).  Constant operands are *not* represented as
// nodes, matching the classic HLS benchmark encodings, so a binary
// operation may legally have a single predecessor.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cdfg/op.h"
#include "support/errors.h"
#include "support/ids.h"

namespace phls {

/// Allocation-free range over the dense node ids [0, count).  The hot
/// synthesis loops iterate nodes thousands of times per point;
/// graph::nodes() materialises a fresh vector per call, node_ids() is a
/// pair of integers.
class node_id_range {
public:
    class iterator {
    public:
        explicit constexpr iterator(int i) : i_(i) {}
        constexpr node_id operator*() const { return node_id(i_); }
        constexpr iterator& operator++()
        {
            ++i_;
            return *this;
        }
        constexpr bool operator!=(iterator o) const { return i_ != o.i_; }
        constexpr bool operator==(iterator o) const { return i_ == o.i_; }

    private:
        int i_;
    };

    explicit constexpr node_id_range(int count) : count_(count) {}
    constexpr iterator begin() const { return iterator(0); }
    constexpr iterator end() const { return iterator(count_); }
    constexpr int size() const { return count_; }

private:
    int count_;
};

/// Directed acyclic data-flow graph of operations.
class graph {
public:
    graph() = default;
    explicit graph(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    /// Adds a node; labels must be unique and non-empty.
    node_id add_node(op_kind kind, std::string_view label);

    /// Makes room for `nodes` nodes, so that adding them never regrows
    /// the node list or the label index.
    void reserve(int nodes);

    /// Adds a data edge from producer `from` to consumer `to`.
    /// Parallel edges are allowed; self-loops are rejected.
    void add_edge(node_id from, node_id to);

    int node_count() const { return static_cast<int>(nodes_.size()); }
    int edge_count() const { return edge_count_; }

    op_kind kind(node_id n) const { return at(n).kind; }
    const std::string& label(node_id n) const { return at(n).label; }

    /// Predecessors (producers) of `n`, in insertion order, with multiplicity.
    const std::vector<node_id>& preds(node_id n) const { return at(n).preds; }
    /// Successors (consumers) of `n`, in insertion order, with multiplicity.
    const std::vector<node_id>& succs(node_id n) const { return at(n).succs; }

    /// All node ids, 0..node_count-1 (materialised; prefer node_ids()
    /// on hot paths).
    std::vector<node_id> nodes() const;

    /// All node ids as an allocation-free range.
    node_id_range node_ids() const { return node_id_range(node_count()); }

    /// Node with the given label, if any; O(1) through the label index.
    std::optional<node_id> find(std::string_view label) const;

    /// Number of nodes of the given kind.
    int count_of_kind(op_kind k) const;

    /// True if the graph contains no cycle.
    bool is_acyclic() const;

    /// Deterministic topological order (smallest ready id first).
    /// Throws phls::error if the graph is cyclic.
    std::vector<node_id> topo_order() const;

    /// Structural validation; throws phls::error describing the first
    /// problem found.  Checks: acyclicity; inputs have no predecessors;
    /// outputs have exactly one predecessor and no successors; binary
    /// operations have one or two predecessors; no dead (unconsumed)
    /// non-output operation.
    void validate() const;

private:
    struct node {
        op_kind kind;
        std::string label;
        std::vector<node_id> preds;
        std::vector<node_id> succs;
    };

    const node& at(node_id n) const
    {
        check(n.valid() && n.index() < nodes_.size(), "invalid node id");
        return nodes_[n.index()];
    }
    node& at(node_id n)
    {
        check(n.valid() && n.index() < nodes_.size(), "invalid node id");
        return nodes_[n.index()];
    }

    /// Slot of `label` in labels_: the one holding its node id, or the
    /// empty slot where it would go.
    std::size_t label_slot(std::string_view label) const;
    /// Re-hashes every label into a table of `slots` slots (a power of two).
    void rehash(std::size_t slots);

    std::string name_;
    std::vector<node> nodes_;
    /// Label index: open addressing with linear probing over node ids
    /// (-1 = empty), hashed with fnv1a and kept at most half full.
    std::vector<int> labels_;
    int edge_count_ = 0;
};

} // namespace phls
