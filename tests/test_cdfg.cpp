// Unit tests for the CDFG substrate: op kinds, graph container, builder,
// structural validation.
#include <gtest/gtest.h>

#include "cdfg/builder.h"
#include "cdfg/graph.h"
#include "support/errors.h"

namespace phls {
namespace {

TEST(op_kind, names_and_symbols_match_the_paper)
{
    EXPECT_EQ(op_kind_symbol(op_kind::add), "+");
    EXPECT_EQ(op_kind_symbol(op_kind::sub), "-");
    EXPECT_EQ(op_kind_symbol(op_kind::mult), "*");
    EXPECT_EQ(op_kind_symbol(op_kind::comp), ">");
    EXPECT_EQ(op_kind_symbol(op_kind::input), "imp");
    EXPECT_EQ(op_kind_symbol(op_kind::output), "xpt");
    EXPECT_EQ(op_kind_name(op_kind::mult), "mult");
}

TEST(op_kind, parse_accepts_names_symbols_and_aliases)
{
    EXPECT_EQ(parse_op_kind("add"), op_kind::add);
    EXPECT_EQ(parse_op_kind("+"), op_kind::add);
    EXPECT_EQ(parse_op_kind("MULT"), op_kind::mult);
    EXPECT_EQ(parse_op_kind("mul"), op_kind::mult);
    EXPECT_EQ(parse_op_kind("imp"), op_kind::input);
    EXPECT_EQ(parse_op_kind(" xpt "), op_kind::output);
    EXPECT_EQ(parse_op_kind("cmp"), op_kind::comp);
    EXPECT_THROW(parse_op_kind("bogus"), error);
}

TEST(op_kind, classification_helpers)
{
    EXPECT_TRUE(is_io(op_kind::input));
    EXPECT_TRUE(is_io(op_kind::output));
    EXPECT_FALSE(is_io(op_kind::add));
    EXPECT_TRUE(is_binary(op_kind::mult));
    EXPECT_FALSE(is_binary(op_kind::output));
    EXPECT_EQ(all_op_kinds().size(), static_cast<std::size_t>(op_kind_count));
}

TEST(graph, nodes_and_edges_are_recorded)
{
    graph g("t");
    const node_id a = g.add_node(op_kind::input, "a");
    const node_id b = g.add_node(op_kind::add, "b");
    g.add_edge(a, b);
    EXPECT_EQ(g.node_count(), 2);
    EXPECT_EQ(g.edge_count(), 1);
    ASSERT_EQ(g.succs(a).size(), 1u);
    EXPECT_EQ(g.succs(a)[0], b);
    ASSERT_EQ(g.preds(b).size(), 1u);
    EXPECT_EQ(g.preds(b)[0], a);
    EXPECT_EQ(g.kind(b), op_kind::add);
    EXPECT_EQ(g.label(a), "a");
}

TEST(graph, duplicate_labels_rejected)
{
    graph g("t");
    g.add_node(op_kind::input, "a");
    EXPECT_THROW(g.add_node(op_kind::add, "a"), error);
}

TEST(graph, empty_label_rejected)
{
    graph g("t");
    EXPECT_THROW(g.add_node(op_kind::add, ""), error);
}

TEST(graph, self_loop_rejected)
{
    graph g("t");
    const node_id a = g.add_node(op_kind::add, "a");
    EXPECT_THROW(g.add_edge(a, a), error);
}

TEST(graph, parallel_edges_model_repeated_operands)
{
    // x * x: same producer on both ports.
    graph g("t");
    const node_id x = g.add_node(op_kind::input, "x");
    const node_id m = g.add_node(op_kind::mult, "m");
    g.add_edge(x, m);
    g.add_edge(x, m);
    EXPECT_EQ(g.preds(m).size(), 2u);
    EXPECT_EQ(g.edge_count(), 2);
}

TEST(graph, find_by_label)
{
    graph g("t");
    g.add_node(op_kind::input, "x");
    const node_id y = g.add_node(op_kind::input, "y");
    EXPECT_EQ(g.find("y"), y);
    EXPECT_FALSE(g.find("zz").has_value());
}

TEST(graph, kind_queries)
{
    graph g("t");
    g.add_node(op_kind::input, "a");
    g.add_node(op_kind::mult, "m1");
    g.add_node(op_kind::mult, "m2");
    EXPECT_EQ(g.count_of_kind(op_kind::mult), 2);
    EXPECT_EQ(g.count_of_kind(op_kind::output), 0);
    EXPECT_EQ(g.count_of_kind(op_kind::input), 1);
}

TEST(graph, topo_order_is_deterministic_and_respects_edges)
{
    graph g("t");
    const node_id a = g.add_node(op_kind::input, "a");
    const node_id b = g.add_node(op_kind::add, "b");
    const node_id c = g.add_node(op_kind::add, "c");
    g.add_edge(a, b);
    g.add_edge(b, c);
    g.add_edge(a, c);
    const std::vector<node_id> order = g.topo_order();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], a);
    EXPECT_EQ(order[1], b);
    EXPECT_EQ(order[2], c);
    EXPECT_TRUE(g.is_acyclic());
}

TEST(graph, cycle_detected)
{
    graph g("t");
    const node_id a = g.add_node(op_kind::add, "a");
    const node_id b = g.add_node(op_kind::add, "b");
    g.add_edge(a, b);
    g.add_edge(b, a);
    EXPECT_FALSE(g.is_acyclic());
    EXPECT_THROW(g.topo_order(), error);
    EXPECT_THROW(g.validate(), error);
}

TEST(graph, validate_rejects_input_with_predecessor)
{
    graph g("t");
    const node_id a = g.add_node(op_kind::input, "a");
    const node_id i = g.add_node(op_kind::input, "i");
    g.add_edge(a, i);
    EXPECT_THROW(g.validate(), error);
}

TEST(graph, validate_rejects_output_without_exactly_one_pred)
{
    graph g("t");
    g.add_node(op_kind::output, "o");
    EXPECT_THROW(g.validate(), error);
}

TEST(graph, validate_rejects_output_with_successor)
{
    graph g("t");
    const node_id x = g.add_node(op_kind::input, "x");
    const node_id o = g.add_node(op_kind::output, "o");
    const node_id p = g.add_node(op_kind::add, "p");
    const node_id o2 = g.add_node(op_kind::output, "o2");
    g.add_edge(x, o);
    g.add_edge(o, p);
    g.add_edge(p, o2);
    EXPECT_THROW(g.validate(), error);
}

TEST(graph, validate_rejects_ternary_operation)
{
    graph g("t");
    const node_id a = g.add_node(op_kind::input, "a");
    const node_id b = g.add_node(op_kind::input, "b");
    const node_id c = g.add_node(op_kind::input, "c");
    const node_id s = g.add_node(op_kind::add, "s");
    const node_id o = g.add_node(op_kind::output, "o");
    g.add_edge(a, s);
    g.add_edge(b, s);
    g.add_edge(c, s);
    g.add_edge(s, o);
    EXPECT_THROW(g.validate(), error);
}

TEST(graph, validate_rejects_dead_operation)
{
    graph g("t");
    const node_id a = g.add_node(op_kind::input, "a");
    const node_id s = g.add_node(op_kind::add, "dead");
    g.add_edge(a, s); // result never consumed
    EXPECT_THROW(g.validate(), error);
}

TEST(graph, invalid_node_id_rejected)
{
    graph g("t");
    EXPECT_THROW(g.kind(node_id(0)), error);
    EXPECT_THROW(g.preds(node_id()), error);
}

TEST(builder, builds_a_valid_graph)
{
    graph_builder b("t");
    const node_id x = b.input("x");
    const node_id y = b.input("y");
    const node_id s = b.add("s", x, y);
    const node_id m = b.mul("m", s); // constant second operand
    b.output("o", m);
    const graph g = b.build();
    EXPECT_EQ(g.node_count(), 5);
    EXPECT_EQ(g.name(), "t");
    EXPECT_NO_THROW(g.validate());
}

TEST(builder, all_arithmetic_kinds)
{
    graph_builder b("t");
    const node_id x = b.input("x");
    const node_id y = b.input("y");
    b.output("o1", b.add("a", x, y));
    b.output("o2", b.sub("s", x, y));
    b.output("o3", b.mul("m", x, y));
    b.output("o4", b.cmp("c", x, y));
    const graph g = b.build();
    EXPECT_EQ(g.count_of_kind(op_kind::add), 1);
    EXPECT_EQ(g.count_of_kind(op_kind::sub), 1);
    EXPECT_EQ(g.count_of_kind(op_kind::mult), 1);
    EXPECT_EQ(g.count_of_kind(op_kind::comp), 1);
}

TEST(builder, generic_op_rejects_io_kinds_and_bad_arity)
{
    graph_builder b("t");
    const node_id x = b.input("x");
    EXPECT_THROW(b.op(op_kind::input, "i", {x}), error);
    EXPECT_THROW(b.op(op_kind::add, "a", {}), error);
    EXPECT_THROW(b.op(op_kind::add, "a", {x, x, x}), error);
}

TEST(builder, build_validates)
{
    graph_builder b("t");
    b.input("x");
    const node_id dangling = b.add("dead", b.input("y"), b.input("z"));
    (void)dangling; // never consumed -> invalid
    EXPECT_THROW(b.build(), error);
}

} // namespace
} // namespace phls
