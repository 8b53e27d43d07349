#include "cdfg/random_dag.h"

#include <string>
#include <vector>

#include "support/errors.h"
#include "support/rng.h"

namespace phls {

graph random_dag(const random_dag_params& params, std::uint64_t seed)
{
    check(params.operations >= 1, "random_dag: need at least one operation");
    check(params.inputs >= 1, "random_dag: need at least one input");
    check(params.layers >= 1, "random_dag: need at least one layer");

    rng r(seed);
    graph g("random_" + std::to_string(seed));
    g.reserve(params.inputs + params.operations);

    std::vector<node_id> inputs;
    for (int i = 0; i < params.inputs; ++i)
        inputs.push_back(g.add_node(op_kind::input, "in" + std::to_string(i)));

    // Ops are assigned to layers 1..layers; an op in layer L draws its
    // operands from inputs or ops in layers < L, biased towards the
    // previous layer so the generated depth tracks `layers`.
    std::vector<std::vector<node_id>> by_layer(static_cast<std::size_t>(params.layers) + 1);
    by_layer[0] = inputs;

    std::vector<node_id> ops;
    for (int i = 0; i < params.operations; ++i) {
        const int layer = 1 + i * params.layers / params.operations;
        op_kind kind = op_kind::add;
        const double roll = r.uniform();
        if (roll < params.mult_fraction)
            kind = op_kind::mult;
        else if (roll < params.mult_fraction + params.comp_fraction)
            kind = op_kind::comp;
        else if (r.chance(0.4))
            kind = op_kind::sub;

        const node_id v = g.add_node(kind, "op" + std::to_string(i));
        const auto pick_pred = [&]() -> node_id {
            // 70 % of operands come from the immediately preceding
            // non-empty layer, the rest from any earlier layer.
            int from_layer = layer - 1;
            if (!r.chance(0.7)) from_layer = r.uniform_int(0, layer - 1);
            while (by_layer[static_cast<std::size_t>(from_layer)].empty()) --from_layer;
            const std::vector<node_id>& pool = by_layer[static_cast<std::size_t>(from_layer)];
            return pool[static_cast<std::size_t>(
                r.uniform_int(0, static_cast<int>(pool.size()) - 1))];
        };
        g.add_edge(pick_pred(), v);
        if (r.chance(params.second_operand_probability)) g.add_edge(pick_pred(), v);
        by_layer[static_cast<std::size_t>(layer)].push_back(v);
        ops.push_back(v);
    }

    // Make sure every input feeds something: rewire unused inputs into the
    // earliest ops (as an extra operand if the op has only one).
    int next_op = 0;
    for (node_id in : inputs) {
        if (!g.succs(in).empty()) continue;
        // find an op with a free operand slot
        while (next_op < static_cast<int>(ops.size()) &&
               g.preds(ops[static_cast<std::size_t>(next_op)]).size() >= 2)
            ++next_op;
        if (next_op < static_cast<int>(ops.size()))
            g.add_edge(in, ops[static_cast<std::size_t>(next_op)]);
        else
            // no free slot anywhere: export the input through a dedicated op
            g.add_edge(in, g.add_node(op_kind::add, "pad_" + g.label(in)));
    }

    // Close every sink op with an output node.
    int sinks = 0;
    for (node_id v : g.node_ids())
        if (!is_io(g.kind(v)) && g.succs(v).empty()) ++sinks;
    g.reserve(g.node_count() + sinks);
    int out_index = 0;
    for (node_id v : g.nodes()) {
        if (g.kind(v) == op_kind::input || g.kind(v) == op_kind::output) continue;
        if (g.succs(v).empty()) {
            const node_id o = g.add_node(op_kind::output, "out" + std::to_string(out_index++));
            g.add_edge(v, o);
        }
    }

    g.validate();
    return g;
}

} // namespace phls
