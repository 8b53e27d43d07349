#include "library/module.h"

#include "support/errors.h"

namespace phls {

std::vector<op_kind> fu_module::supported_kinds() const
{
    std::vector<op_kind> out;
    for (op_kind k : all_op_kinds())
        if (supports(k)) out.push_back(k);
    return out;
}

std::string fu_module::ops_string() const
{
    std::string out = "{";
    bool first = true;
    for (op_kind k : supported_kinds()) {
        if (!first) out += ",";
        out += std::string(op_kind_symbol(k));
        first = false;
    }
    out += "}";
    return out;
}

fu_module make_module(const std::string& name, std::initializer_list<op_kind> kinds,
                      double area, int latency, double power)
{
    fu_module m;
    m.name = name;
    for (op_kind k : kinds) m.ops.set(static_cast<std::size_t>(op_kind_index(k)));
    m.area = area;
    m.latency = latency;
    m.power = power;
    validate_module(m);
    return m;
}

void validate_module(const fu_module& m)
{
    check(!m.name.empty(), "module name must be non-empty");
    const bool has_io = m.supports(op_kind::input) || m.supports(op_kind::output);
    const bool has_arith = m.supports(op_kind::add) || m.supports(op_kind::sub) ||
                           m.supports(op_kind::mult) || m.supports(op_kind::comp);
    const char* bad = nullptr;
    if (!m.ops.any()) bad = "implements no operation kind";
    else if (m.latency < 1) bad = "must take at least one cycle";
    else if (!(m.area >= 0.0)) bad = "has negative area";
    else if (!(m.power >= 0.0)) bad = "has negative power";
    else if (has_io && has_arith) bad = "mixes interface and arithmetic kinds";
    else if (m.supports(op_kind::input) && m.supports(op_kind::output))
        bad = "mixes input and output kinds";
    if (bad) throw error("module '" + m.name + "' " + bad);
}

} // namespace phls
