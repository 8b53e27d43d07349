#include "library/library.h"

#include <limits>
#include <ostream>
#include <sstream>

#include "support/errors.h"
#include "support/strings.h"

namespace phls {

module_id module_library::add(fu_module m)
{
    validate_module(m);
    if (find(m.name)) throw error("duplicate module name '" + m.name + "'");
    modules_.push_back(std::move(m));
    return module_id(static_cast<int>(modules_.size()) - 1);
}

std::optional<module_id> module_library::find(const std::string& name) const
{
    for (int i = 0; i < size(); ++i)
        if (modules_[static_cast<std::size_t>(i)].name == name) return module_id(i);
    return std::nullopt;
}

std::vector<module_id> module_library::candidates_for(op_kind k) const
{
    std::vector<module_id> out;
    for (int i = 0; i < size(); ++i)
        if (modules_[static_cast<std::size_t>(i)].supports(k)) out.push_back(module_id(i));
    return out;
}

std::optional<module_id> module_library::fastest_for(op_kind k, double max_power) const
{
    std::optional<module_id> best;
    for (int i = 0; i < size(); ++i) {
        const fu_module& m = modules_[static_cast<std::size_t>(i)];
        if (!m.supports(k) || m.power > max_power) continue;
        if (!best) {
            best = module_id(i);
            continue;
        }
        const fu_module& b = module(*best);
        if (m.latency < b.latency ||
            (m.latency == b.latency &&
             (m.power < b.power || (m.power == b.power && m.area < b.area))))
            best = module_id(i);
    }
    return best;
}

std::optional<module_id> module_library::cheapest_for(op_kind k, double max_power) const
{
    std::optional<module_id> best;
    for (int i = 0; i < size(); ++i) {
        const fu_module& m = modules_[static_cast<std::size_t>(i)];
        if (!m.supports(k) || m.power > max_power) continue;
        if (!best) {
            best = module_id(i);
            continue;
        }
        const fu_module& b = module(*best);
        if (m.area < b.area ||
            (m.area == b.area &&
             (m.power < b.power || (m.power == b.power && m.latency < b.latency))))
            best = module_id(i);
    }
    return best;
}

std::optional<double> module_library::min_power_for(op_kind k) const
{
    std::optional<double> best;
    for (const fu_module& m : modules_)
        if (m.supports(k) && (!best || m.power < *best)) best = m.power;
    return best;
}

void module_library::check_covers(const graph& g) const
{
    for (node_id v : g.node_ids()) {
        const op_kind k = g.kind(v);
        if (!min_power_for(k)) // no module supports k
            throw error("library '" + name_ + "' has no module for operation kind '" +
                        std::string(op_kind_name(k)) + "' (node '" + g.label(v) + "')");
    }
}

module_library table1_library()
{
    module_library lib("date03_table1");
    lib.add(make_module("add", {op_kind::add}, 87, 1, 2.5));
    lib.add(make_module("sub", {op_kind::sub}, 87, 1, 2.5));
    lib.add(make_module("comp", {op_kind::comp}, 8, 1, 2.5));
    lib.add(make_module("ALU", {op_kind::add, op_kind::sub, op_kind::comp}, 97, 1, 2.5));
    lib.add(make_module("mult_ser", {op_kind::mult}, 103, 4, 2.7));
    lib.add(make_module("mult_par", {op_kind::mult}, 339, 2, 8.1));
    lib.add(make_module("input", {op_kind::input}, 16, 1, 0.2));
    lib.add(make_module("output", {op_kind::output}, 16, 1, 1.7));
    return lib;
}

module_library parse_library(std::istream& is) { return parse_library_string(read_all(is)); }

module_library parse_library_string(std::string_view text)
{
    module_library lib;
    bool saw_header = false;
    std::string_view lib_name = "unnamed";
    for_each_line(text, [&](const std::vector<std::string_view>& tok, int) {
        if (tok[0] == "library") {
            check(tok.size() == 2, "expected: library <name>");
            lib_name = tok[1];
            saw_header = true;
        } else if (tok[0] == "module") {
            // module <name> <op>... area <a> cycles <c> power <p>
            check(tok.size() >= 8, "expected: module <name> <ops...> area <a> cycles <c> power <p>");
            fu_module m;
            m.name = tok[1];
            std::size_t i = 2;
            while (i < tok.size() && tok[i] != "area") {
                m.ops.set(static_cast<std::size_t>(op_kind_index(parse_op_kind(tok[i]))));
                ++i;
            }
            check(i + 6 <= tok.size(), "truncated module line");
            check(tok[i] == "area" && tok[i + 2] == "cycles" && tok[i + 4] == "power",
                  "expected 'area <a> cycles <c> power <p>'");
            m.area = parse_double(tok[i + 1], "area");
            m.latency = parse_int(tok[i + 3], "cycles");
            m.power = parse_double(tok[i + 5], "power");
            lib.add(std::move(m));
        } else {
            throw error("unknown directive '" + std::string(tok[0]) + "'");
        }
    });
    check(saw_header, "missing 'library <name>' header");
    module_library named{std::string(lib_name)};
    for (const fu_module& m : lib.modules()) named.add(m);
    return named;
}

void write_library(const module_library& lib, std::ostream& os)
{
    os << "library " << (lib.name().empty() ? "unnamed" : lib.name()) << '\n';
    for (const fu_module& m : lib.modules()) {
        os << "module " << m.name;
        for (op_kind k : m.supported_kinds()) os << ' ' << op_kind_name(k);
        os << " area " << m.area << " cycles " << m.latency << " power " << m.power << '\n';
    }
}

std::string write_library_string(const module_library& lib)
{
    std::ostringstream os;
    write_library(lib, os);
    return os.str();
}

} // namespace phls
