#include "cdfg/op.h"

#include <ostream>

#include "support/errors.h"
#include "support/strings.h"

namespace phls {

std::string_view op_kind_name(op_kind k)
{
    switch (k) {
    case op_kind::input: return "input";
    case op_kind::output: return "output";
    case op_kind::add: return "add";
    case op_kind::sub: return "sub";
    case op_kind::mult: return "mult";
    case op_kind::comp: return "comp";
    }
    return "?";
}

std::string_view op_kind_symbol(op_kind k)
{
    switch (k) {
    case op_kind::input: return "imp";
    case op_kind::output: return "xpt";
    case op_kind::add: return "+";
    case op_kind::sub: return "-";
    case op_kind::mult: return "*";
    case op_kind::comp: return ">";
    }
    return "?";
}

op_kind parse_op_kind(std::string_view text)
{
    const std::string_view t = trim(text);
    const auto is = [&](std::string_view name) { return equals_ignoring_case(t, name); };
    for (op_kind k : all_op_kinds()) {
        if (is(op_kind_name(k)) || is(op_kind_symbol(k))) return k;
    }
    // Accepted aliases seen in other HLS tool formats.
    if (is("mul") || is("mpy")) return op_kind::mult;
    if (is("cmp") || is("lt") || is("gt")) return op_kind::comp;
    if (is("in")) return op_kind::input;
    if (is("out")) return op_kind::output;
    throw error("unknown operation kind '" + std::string(text) + "'");
}

std::ostream& operator<<(std::ostream& os, op_kind k) { return os << op_kind_name(k); }

} // namespace phls
