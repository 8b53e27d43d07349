// The seed-era text readers, kept as the differential oracle of the
// library's line reader (parser_fuzz.*): std::getline over an
// istringstream, a std::vector<std::string> of tokens per line, a
// std::map of labels and a try/catch per reader that turns a
// phls::error into a parse_error with the line number.  The library's
// readers must accept exactly what these accept, build the same object
// and reject everything else with the same exception type and message.
#pragma once

#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cdfg/benchmarks.h"
#include "cdfg/graph.h"
#include "library/library.h"
#include "support/errors.h"
#include "support/strings.h"
#include "task/set.h"

namespace phls::reference {

/// Splits on runs of whitespace; empty pieces are dropped.
inline std::vector<std::string> split_ws(std::string_view s)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
        std::size_t j = i;
        while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
        if (j > i) out.emplace_back(s.substr(i, j - i));
        i = j;
    }
    return out;
}

inline graph parse_cdfg(std::istream& is)
{
    std::string name = "unnamed";
    struct pending_node {
        std::string label;
        op_kind kind;
    };
    struct pending_edge {
        std::string from, to;
        int line;
    };
    std::vector<pending_node> nodes;
    std::vector<pending_edge> edges;

    std::string line;
    int lineno = 0;
    bool saw_header = false;
    while (std::getline(is, line)) {
        ++lineno;
        if (is_blank_or_comment(line)) continue;
        const std::vector<std::string> tok = split_ws(line);
        try {
            if (tok[0] == "cdfg") {
                check(tok.size() == 2, "expected: cdfg <name>");
                name = tok[1];
                saw_header = true;
            } else if (tok[0] == "node") {
                check(tok.size() == 3, "expected: node <label> <kind>");
                nodes.push_back({tok[1], parse_op_kind(tok[2])});
            } else if (tok[0] == "edge") {
                check(tok.size() == 3, "expected: edge <from> <to>");
                edges.push_back({tok[1], tok[2], lineno});
            } else {
                throw error("unknown directive '" + tok[0] + "'");
            }
        } catch (const parse_error&) {
            throw;
        } catch (const error& e) {
            throw parse_error(e.what(), lineno);
        }
    }
    check(saw_header, "missing 'cdfg <name>' header");

    graph g(name);
    std::map<std::string, node_id> by_label;
    for (const pending_node& n : nodes) by_label[n.label] = g.add_node(n.kind, n.label);
    for (const pending_edge& e : edges) {
        const auto from = by_label.find(e.from);
        const auto to = by_label.find(e.to);
        if (from == by_label.end())
            throw parse_error("edge references unknown node '" + e.from + "'", e.line);
        if (to == by_label.end())
            throw parse_error("edge references unknown node '" + e.to + "'", e.line);
        g.add_edge(from->second, to->second);
    }
    g.validate();
    return g;
}

inline graph parse_cdfg_string(const std::string& text)
{
    std::istringstream is(text);
    return parse_cdfg(is);
}

inline module_library parse_library(std::istream& is)
{
    module_library lib;
    std::string line;
    int lineno = 0;
    bool saw_header = false;
    std::string lib_name = "unnamed";
    while (std::getline(is, line)) {
        ++lineno;
        if (is_blank_or_comment(line)) continue;
        const std::vector<std::string> tok = split_ws(line);
        try {
            if (tok[0] == "library") {
                check(tok.size() == 2, "expected: library <name>");
                lib_name = tok[1];
                saw_header = true;
            } else if (tok[0] == "module") {
                // module <name> <op>... area <a> cycles <c> power <p>
                check(tok.size() >= 8,
                      "expected: module <name> <ops...> area <a> cycles <c> power <p>");
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
                throw error("unknown directive '" + tok[0] + "'");
            }
        } catch (const parse_error&) {
            throw;
        } catch (const error& e) {
            throw parse_error(e.what(), lineno);
        }
    }
    check(saw_header, "missing 'library <name>' header");
    module_library named(lib_name);
    for (const fu_module& m : lib.modules()) named.add(m);
    return named;
}

inline module_library parse_library_string(const std::string& text)
{
    std::istringstream is(text);
    return parse_library(is);
}

namespace detail {

/// `T` or `LO..HI` or `LO..HI..STEP`, expanded to the inclusive value
/// list {LO, LO+STEP, ...} <= HI.
inline std::vector<int> parse_latency_axis(const std::string& spec)
{
    const std::size_t first = spec.find("..");
    if (first == std::string::npos)
        return {parse_int(spec, "latency")};
    const std::size_t second = spec.find("..", first + 2);
    const std::string lo_s = spec.substr(0, first);
    const std::string hi_s = second == std::string::npos
                                 ? spec.substr(first + 2)
                                 : spec.substr(first + 2, second - first - 2);
    const int lo = parse_int(lo_s, "latency range start");
    const int hi = parse_int(hi_s, "latency range end");
    const int step = second == std::string::npos
                         ? 1
                         : parse_int(spec.substr(second + 2), "latency range step");
    check(lo >= 1, "latency range start must be >= 1");
    check(hi >= lo, "latency range end must be >= its start");
    check(step >= 1, "latency range step must be >= 1");
    std::vector<int> values;
    for (int t = lo; t <= hi; t += step) values.push_back(t);
    return values;
}

inline graph load_task_graph(const std::string& ref)
{
    if (ends_with(ref, ".cdfg")) {
        std::ifstream is(ref);
        if (!is.good()) throw error("cannot open CDFG file '" + ref + "'");
        return reference::parse_cdfg(is);
    }
    return benchmark_by_name(ref);
}

inline module_library load_task_library(const std::string& path)
{
    std::ifstream is(path);
    if (!is.good()) throw error("cannot open library file '" + path + "'");
    return reference::parse_library(is);
}

inline task::task_spec parse_task_line(const std::vector<std::string>& tok)
{
    check(tok.size() >= 3, "expected: task <name> <graph> deadline <D> [...]");
    task::task_spec t;
    t.name = tok[1];
    t.g = load_task_graph(tok[2]);
    t.lib = table1_library();
    bool saw_deadline = false;
    for (std::size_t i = 3; i < tok.size(); i += 2) {
        if (i + 1 >= tok.size()) throw error("task attribute '" + tok[i] + "' needs a value");
        const std::string& key = tok[i];
        const std::string& value = tok[i + 1];
        if (key == "deadline") {
            t.deadline = parse_int(value, "deadline");
            saw_deadline = true;
        } else if (key == "release") {
            t.release = parse_int(value, "release");
        } else if (key == "iterations") {
            t.iterations = parse_int(value, "iterations");
        } else if (key == "latency") {
            t.latencies = parse_latency_axis(value);
        } else if (key == "caps") {
            t.caps = parse_int(value, "caps");
        } else if (key == "synth") {
            t.synthesizer = value;
        } else if (key == "sched") {
            t.scheduler = value;
        } else if (key == "library") {
            t.lib = load_task_library(value);
        } else {
            throw error("unknown task attribute '" + key + "'");
        }
    }
    if (!saw_deadline) throw error("task '" + t.name + "' has no deadline");
    return t;
}

inline void parse_battery_line(const std::vector<std::string>& tok, lifetime_spec& battery)
{
    for (std::size_t i = 1; i < tok.size(); i += 2) {
        if (i + 1 >= tok.size())
            throw error("battery attribute '" + tok[i] + "' needs a value");
        const std::string& key = tok[i];
        const std::string& value = tok[i + 1];
        if (key == "beta") {
            battery.beta = parse_double(value, "battery beta");
        } else if (key == "alpha") {
            battery.alpha = parse_double(value, "battery alpha");
        } else if (key == "voltage") {
            battery.voltage = parse_double(value, "battery voltage");
        } else if (key == "cycle") {
            battery.cycle_seconds = parse_double(value, "battery cycle");
        } else if (key == "idle") {
            battery.idle_cycles = parse_int(value, "battery idle");
        } else {
            throw error("unknown battery attribute '" + key + "'");
        }
    }
}

} // namespace detail

/// The seed-era name check of check_task_set: one non-empty token.
inline bool is_single_token(const std::string& name)
{
    return !name.empty() && split_ws(name).size() == 1 && trim(name).size() == name.size();
}

inline task::task_set parse_task_set(std::istream& is)
{
    task::task_set set;
    std::string line;
    int lineno = 0;
    bool saw_header = false;
    while (std::getline(is, line)) {
        ++lineno;
        if (is_blank_or_comment(line)) continue;
        const std::vector<std::string> tok = split_ws(line);
        try {
            if (tok[0] == "taskset") {
                check(tok.size() == 2, "expected: taskset <name>");
                set.name = tok[1];
                saw_header = true;
            } else if (tok[0] == "envelope") {
                check(tok.size() == 2, "expected: envelope <power>");
                set.envelope = parse_double(tok[1], "envelope");
            } else if (tok[0] == "battery") {
                detail::parse_battery_line(tok, set.battery);
            } else if (tok[0] == "task") {
                set.tasks.push_back(detail::parse_task_line(tok));
            } else {
                throw error("unknown directive '" + tok[0] + "'");
            }
        } catch (const parse_error&) {
            throw;
        } catch (const error& e) {
            throw parse_error(e.what(), lineno);
        }
    }
    check(saw_header, "missing 'taskset <name>' header");
    task::check_task_set(set);
    return set;
}

inline task::task_set parse_task_set_string(const std::string& text)
{
    std::istringstream is(text);
    return parse_task_set(is);
}

} // namespace phls::reference
