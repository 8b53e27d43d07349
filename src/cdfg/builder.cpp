#include "cdfg/builder.h"

#include "support/errors.h"

namespace phls {

node_id graph_builder::input(const std::string& label)
{
    return g_.add_node(op_kind::input, label);
}

node_id graph_builder::output(const std::string& label, node_id src)
{
    const node_id n = g_.add_node(op_kind::output, label);
    g_.add_edge(src, n);
    return n;
}

node_id graph_builder::op(op_kind kind, const std::string& label,
                          const std::vector<node_id>& operands)
{
    check(is_binary(kind), "graph_builder::op is for arithmetic kinds");
    if (operands.empty() || operands.size() > 2)
        throw error("operation '" + label + "' needs one or two operands");
    const node_id n = g_.add_node(kind, label);
    for (node_id a : operands) g_.add_edge(a, n);
    return n;
}

node_id graph_builder::add(const std::string& label, node_id a, node_id b)
{
    return op(op_kind::add, label, {a, b});
}
node_id graph_builder::sub(const std::string& label, node_id a, node_id b)
{
    return op(op_kind::sub, label, {a, b});
}
node_id graph_builder::mul(const std::string& label, node_id a, node_id b)
{
    return op(op_kind::mult, label, {a, b});
}
node_id graph_builder::cmp(const std::string& label, node_id a, node_id b)
{
    return op(op_kind::comp, label, {a, b});
}

node_id graph_builder::add(const std::string& label, node_id a)
{
    return op(op_kind::add, label, {a});
}
node_id graph_builder::sub(const std::string& label, node_id a)
{
    return op(op_kind::sub, label, {a});
}
node_id graph_builder::mul(const std::string& label, node_id a)
{
    return op(op_kind::mult, label, {a});
}
node_id graph_builder::cmp(const std::string& label, node_id a)
{
    return op(op_kind::comp, label, {a});
}

graph graph_builder::build()
{
    g_.validate();
    graph out = std::move(g_);
    g_ = graph();
    return out;
}

} // namespace phls
