#include "task/set.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "cdfg/benchmarks.h"
#include "cdfg/textio.h"
#include "support/errors.h"
#include "support/strings.h"

namespace phls::task {

namespace {

/// `T` or `LO..HI` or `LO..HI..STEP`, expanded to the inclusive value
/// list {LO, LO+STEP, ...} <= HI.
std::vector<int> parse_latency_axis(std::string_view spec)
{
    const std::size_t first = spec.find("..");
    if (first == std::string_view::npos)
        return {parse_int(spec, "latency")};
    const std::size_t second = spec.find("..", first + 2);
    const std::string_view lo_s = spec.substr(0, first);
    const std::string_view hi_s = second == std::string_view::npos
                                      ? spec.substr(first + 2)
                                      : spec.substr(first + 2, second - first - 2);
    const int lo = parse_int(lo_s, "latency range start");
    const int hi = parse_int(hi_s, "latency range end");
    const int step = second == std::string_view::npos
                         ? 1
                         : parse_int(spec.substr(second + 2), "latency range step");
    check(lo >= 1, "latency range start must be >= 1");
    check(hi >= lo, "latency range end must be >= its start");
    check(step >= 1, "latency range step must be >= 1");
    std::vector<int> values;
    for (int t = lo; t <= hi; t += step) values.push_back(t);
    return values;
}

graph load_task_graph(const std::string& ref)
{
    if (ends_with(ref, ".cdfg")) {
        std::ifstream is(ref);
        if (!is.good()) throw error("cannot open CDFG file '" + ref + "'");
        return parse_cdfg(is);
    }
    return benchmark_by_name(ref);
}

module_library load_task_library(const std::string& path)
{
    std::ifstream is(path);
    if (!is.good()) throw error("cannot open library file '" + path + "'");
    return parse_library(is);
}

task_spec parse_task_line(const std::vector<std::string_view>& tok)
{
    check(tok.size() >= 3, "expected: task <name> <graph> deadline <D> [...]");
    task_spec t;
    t.name = tok[1];
    t.g = load_task_graph(std::string(tok[2]));
    t.lib = table1_library();
    bool saw_deadline = false;
    for (std::size_t i = 3; i < tok.size(); i += 2) {
        if (i + 1 >= tok.size())
            throw error("task attribute '" + std::string(tok[i]) + "' needs a value");
        const std::string_view key = tok[i];
        const std::string_view value = tok[i + 1];
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
            t.lib = load_task_library(std::string(value));
        } else {
            throw error("unknown task attribute '" + std::string(key) + "'");
        }
    }
    if (!saw_deadline) throw error("task '" + t.name + "' has no deadline");
    return t;
}

void parse_battery_line(const std::vector<std::string_view>& tok, lifetime_spec& battery)
{
    for (std::size_t i = 1; i < tok.size(); i += 2) {
        if (i + 1 >= tok.size())
            throw error("battery attribute '" + std::string(tok[i]) + "' needs a value");
        const std::string_view key = tok[i];
        const std::string_view value = tok[i + 1];
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
            throw error("unknown battery attribute '" + std::string(key) + "'");
        }
    }
}

bool is_finite_positive(double x) { return std::isfinite(x) && x > 0.0; }

} // namespace

void check_task_set(const task_set& set)
{
    if (set.tasks.empty()) throw error("task set '" + set.name + "' has no tasks");
    check(set.envelope > 0.0, "task set envelope must be positive");
    check(is_finite_positive(set.battery.beta), "battery beta must be positive");
    check(is_finite_positive(set.battery.voltage), "battery voltage must be positive");
    check(is_finite_positive(set.battery.cycle_seconds),
          "battery cycle seconds must be positive");
    check(set.battery.idle_cycles >= 0, "battery idle cycles must be >= 0");
    std::set<std::string> names;
    for (const task_spec& t : set.tasks) {
        check(!t.name.empty() && std::none_of(t.name.begin(), t.name.end(), is_space),
              "task names must be single non-empty tokens");
        const char* bad = nullptr;
        if (!names.insert(t.name).second) bad = "duplicate task name";
        else if (t.release < 0) bad = "release must be >= 0";
        else if (t.deadline <= t.release) bad = "deadline must exceed the release";
        else if (t.iterations < 1) bad = "iterations must be >= 1";
        else if (t.caps < 1) bad = "caps must be >= 1";
        else if (std::any_of(t.latencies.begin(), t.latencies.end(),
                             [](int lat) { return lat < 1; }))
            bad = "latencies must be >= 1";
        if (bad) throw error("task '" + t.name + "': " + bad);
        try {
            t.lib.check_covers(t.g);
        } catch (const error& e) {
            throw error("task '" + t.name + "': " + e.what());
        }
    }
}

task_set parse_task_set(std::istream& is) { return parse_task_set_string(read_all(is)); }

task_set parse_task_set_string(std::string_view text)
{
    task_set set;
    bool saw_header = false;
    for_each_line(text, [&](const std::vector<std::string_view>& tok, int) {
        if (tok[0] == "taskset") {
            check(tok.size() == 2, "expected: taskset <name>");
            set.name = tok[1];
            saw_header = true;
        } else if (tok[0] == "envelope") {
            check(tok.size() == 2, "expected: envelope <power>");
            set.envelope = parse_double(tok[1], "envelope");
        } else if (tok[0] == "battery") {
            parse_battery_line(tok, set.battery);
        } else if (tok[0] == "task") {
            set.tasks.push_back(parse_task_line(tok));
        } else {
            throw error("unknown directive '" + std::string(tok[0]) + "'");
        }
    });
    check(saw_header, "missing 'taskset <name>' header");
    check_task_set(set);
    return set;
}

std::string write_task_set_string(const task_set& set)
{
    check_task_set(set);
    const std::string table1 = write_library_string(table1_library());
    std::ostringstream os;
    os << "taskset " << set.name << '\n';
    if (std::isfinite(set.envelope)) os << "envelope " << strf("%g", set.envelope) << '\n';
    os << strf("battery beta %g voltage %g cycle %g idle %d", set.battery.beta,
               set.battery.voltage, set.battery.cycle_seconds, set.battery.idle_cycles);
    if (set.battery.alpha > 0.0) os << strf(" alpha %g", set.battery.alpha);
    os << '\n';
    for (const task_spec& t : set.tasks) {
        bool known = false;
        for (const std::string& b : benchmark_names()) known = known || b == t.g.name();
        if (!known)
            throw error("task '" + t.name + "': only built-in benchmark graphs can be "
                        "written by name (graph '" + t.g.name() + "' is not one)");
        if (write_library_string(t.lib) != table1)
            throw error("task '" + t.name +
                        "': only the default Table 1 library can be written");
        os << "task " << t.name << ' ' << t.g.name() << " deadline " << t.deadline;
        if (t.release != 0) os << " release " << t.release;
        if (t.iterations != 1) os << " iterations " << t.iterations;
        if (!t.latencies.empty()) {
            os << " latency ";
            // Emit a LO..HI..STEP range when the values are an arithmetic
            // progression (they round-trip exactly); otherwise one task
            // line per explicit value cannot be expressed -- fall back to
            // the densest range notation that reproduces the list.
            bool arithmetic = true;
            const int step =
                t.latencies.size() > 1 ? t.latencies[1] - t.latencies[0] : 1;
            for (std::size_t i = 1; i < t.latencies.size(); ++i)
                arithmetic =
                    arithmetic && t.latencies[i] - t.latencies[i - 1] == step;
            if (!arithmetic || step < 1)
                throw error("task '" + t.name +
                            "': explicit latencies must form an increasing arithmetic "
                            "progression to be written as LO..HI..STEP");
            if (t.latencies.size() == 1)
                os << t.latencies.front();
            else
                os << t.latencies.front() << ".." << t.latencies.back() << ".." << step;
        }
        if (t.caps != 6) os << " caps " << t.caps;
        if (t.synthesizer != "greedy") os << " synth " << t.synthesizer;
        if (t.scheduler != "pasap") os << " sched " << t.scheduler;
        os << '\n';
    }
    return os.str();
}

} // namespace phls::task
