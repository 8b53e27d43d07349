// Exact what() of every user-reachable error whose message is formatted
// on the failure branch.  Each pin is a byte-for-byte contract: a rewrite
// of a check site may move where the message is built, never what it says.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cdfg/builder.h"
#include "dse/space.h"
#include "rtl/netlist.h"
#include "sched/pasap.h"
#include "sched/schedule.h"
#include "support/argparse.h"
#include "support/csv.h"
#include "support/errors.h"
#include "support/faultpoints.h"
#include "support/strings.h"
#include "support/table.h"
#include "task/set.h"

namespace phls {
namespace {

/// The what() of the phls::error `f` throws, or "" when it returns.
template <typename F>
std::string thrown_by(F&& f)
{
    try {
        f();
    } catch (const error& e) {
        return e.what();
    }
    return "";
}

/// in_a, in_b -> m (mult) -> out, in graph "pin".
graph pin_graph()
{
    graph g("pin");
    const node_id a = g.add_node(op_kind::input, "in_a");
    const node_id b = g.add_node(op_kind::input, "in_b");
    const node_id m = g.add_node(op_kind::mult, "m");
    const node_id o = g.add_node(op_kind::output, "out");
    g.add_edge(a, m);
    g.add_edge(b, m);
    g.add_edge(m, o);
    return g;
}

/// Table 1 modules of pin_graph(): inputs at 0, m (mult_par) at 1,
/// out at 3; latency 4, peak 8.1.
schedule pin_schedule(const graph& g, const module_library& lib)
{
    schedule s(g.node_count());
    const module_assignment a = fastest_assignment(g, lib, unbounded_power);
    const int starts[] = {0, 0, 1, 3};
    for (node_id v : g.node_ids()) {
        s.set_module(v, a[v.index()]);
        s.set_start(v, starts[v.index()]);
    }
    return s;
}

TEST(error_messages, pasap_and_palap_reject_a_module_that_cannot_execute_a_node)
{
    const graph g = pin_graph();
    const module_library lib = table1_library();
    module_assignment a = fastest_assignment(g, lib, unbounded_power);
    a[2] = *lib.find("add");
    EXPECT_EQ(thrown_by([&] { pasap(g, lib, a, unbounded_power); }),
              "module 'add' cannot execute 'm'");
    EXPECT_EQ(thrown_by([&] { palap(g, lib, a, unbounded_power, 20); }),
              "module 'add' cannot execute 'm'");
}

TEST(error_messages, graph_validate_names_the_node_and_the_graph)
{
    const auto validated = [](auto build) {
        graph g("bad");
        build(g);
        return thrown_by([&] { g.validate(); });
    };
    EXPECT_EQ(validated([](graph& g) {
                  const node_id a = g.add_node(op_kind::input, "a");
                  const node_id b = g.add_node(op_kind::input, "b");
                  g.add_edge(a, b);
              }),
              "node 'b' in graph 'bad': input must have no predecessors");
    EXPECT_EQ(validated([](graph& g) { g.add_node(op_kind::output, "o"); }),
              "node 'o' in graph 'bad': output must have exactly one predecessor");
    EXPECT_EQ(validated([](graph& g) {
                  const node_id a = g.add_node(op_kind::input, "a");
                  const node_id o = g.add_node(op_kind::output, "o");
                  const node_id p = g.add_node(op_kind::output, "p");
                  g.add_edge(a, o);
                  g.add_edge(o, p);
              }),
              "node 'o' in graph 'bad': output must have no successors");
    EXPECT_EQ(validated([](graph& g) { g.add_node(op_kind::add, "x"); }),
              "node 'x' in graph 'bad': binary operation must have one or two predecessors");
    EXPECT_EQ(validated([](graph& g) {
                  const node_id a = g.add_node(op_kind::input, "a");
                  g.add_edge(a, g.add_node(op_kind::add, "x"));
              }),
              "node 'x' in graph 'bad': operation result is never consumed");
    EXPECT_EQ(validated([](graph& g) {
                  const node_id x = g.add_node(op_kind::add, "x");
                  const node_id y = g.add_node(op_kind::add, "y");
                  g.add_edge(x, y);
                  g.add_edge(y, x);
              }),
              "graph 'bad' contains a cycle");

    graph cyclic("loop");
    const node_id x = cyclic.add_node(op_kind::add, "x");
    const node_id y = cyclic.add_node(op_kind::add, "y");
    cyclic.add_edge(x, y);
    cyclic.add_edge(y, x);
    EXPECT_EQ(thrown_by([&] { cyclic.topo_order(); }), "graph 'loop' contains a cycle");
}

TEST(error_messages, graph_construction_rejects_duplicates_and_self_loops)
{
    graph g("pin");
    const node_id a = g.add_node(op_kind::input, "a");
    EXPECT_EQ(thrown_by([&] { g.add_node(op_kind::input, "a"); }), "duplicate node label 'a'");
    EXPECT_EQ(thrown_by([&] { g.add_edge(a, a); }), "self-loop on node 'a'");

    graph_builder b("pin");
    const node_id i = b.input("i");
    EXPECT_EQ(thrown_by([&] { b.op(op_kind::add, "s", {i, i, i}); }),
              "operation 's' needs one or two operands");
}

TEST(error_messages, library_coverage_and_module_validation)
{
    module_library lib("tiny");
    lib.add(make_module("in", {op_kind::input}, 16, 1, 0.2));
    lib.add(make_module("out", {op_kind::output}, 16, 1, 1.7));
    lib.add(make_module("add", {op_kind::add}, 87, 1, 2.5));
    EXPECT_EQ(thrown_by([&] { lib.check_covers(pin_graph()); }),
              "library 'tiny' has no module for operation kind 'mult' (node 'm')");
    EXPECT_EQ(thrown_by([&] { lib.add(make_module("add", {op_kind::sub}, 87, 1, 2.5)); }),
              "duplicate module name 'add'");

    EXPECT_EQ(thrown_by([] { make_module("u", {}, 1, 1, 1); }),
              "module 'u' implements no operation kind");
    EXPECT_EQ(thrown_by([] { make_module("u", {op_kind::add}, 1, 0, 1); }),
              "module 'u' must take at least one cycle");
    EXPECT_EQ(thrown_by([] { make_module("u", {op_kind::add}, -1, 1, 1); }),
              "module 'u' has negative area");
    EXPECT_EQ(thrown_by([] { make_module("u", {op_kind::add}, 1, 1, -1); }),
              "module 'u' has negative power");
    EXPECT_EQ(thrown_by([] { make_module("u", {op_kind::add, op_kind::input}, 1, 1, 1); }),
              "module 'u' mixes interface and arithmetic kinds");
    EXPECT_EQ(thrown_by([] { make_module("u", {op_kind::input, op_kind::output}, 1, 1, 1); }),
              "module 'u' mixes input and output kinds");
}

TEST(error_messages, validate_schedule_reports_the_first_violation)
{
    const graph g = pin_graph();
    const module_library lib = table1_library();
    const schedule good = pin_schedule(g, lib);
    EXPECT_EQ(thrown_by([&] { validate_schedule(g, lib, good, 4, 8.1); }), "");

    schedule s = good;
    s.clear_start(node_id(1));
    EXPECT_EQ(thrown_by([&] { validate_schedule(g, lib, s, 4, 8.1); }),
              "operation 'in_b' is unscheduled");
    s = good;
    s.set_module(node_id(0), module_id());
    EXPECT_EQ(thrown_by([&] { validate_schedule(g, lib, s, 4, 8.1); }),
              "operation 'in_a' has no module");
    s = good;
    s.set_module(node_id(2), *lib.find("add"));
    EXPECT_EQ(thrown_by([&] { validate_schedule(g, lib, s, 4, 8.1); }),
              "module 'add' cannot execute 'm'");
    s = good;
    s.set_start(node_id(2), 0);
    EXPECT_EQ(thrown_by([&] { validate_schedule(g, lib, s, 4, 8.1); }),
              "dependency violated: 'in_a' (finish 1) -> 'm' (start 0)");
    EXPECT_EQ(thrown_by([&] { validate_schedule(g, lib, good, 3, 8.1); }),
              "latency 4 exceeds constraint 3");
    EXPECT_EQ(thrown_by([&] { validate_schedule(g, lib, good, 4, 1.0); }),
              "peak power 8.100 exceeds constraint 1.000");
}

TEST(error_messages, netlist_rejects_an_invalid_instance)
{
    const graph g = pin_graph();
    const module_library lib = table1_library();
    const schedule s = pin_schedule(g, lib);
    const std::vector<int> instance_of = {0, 1, 2, 7};
    std::vector<module_id> modules;
    for (node_id v : g.node_ids()) modules.push_back(s.module_of(v));
    EXPECT_EQ(thrown_by([&] { build_netlist("d", g, lib, s, instance_of, modules); }),
              "node 'out' bound to invalid instance");
    modules[1] = modules[2];
    EXPECT_EQ(thrown_by([&] { build_netlist("d", g, lib, s, {0, 1, 2, 3}, modules); }),
              "node 'in_b' module disagrees with its instance");
}

TEST(error_messages, task_set_parsing_and_writing)
{
    using namespace task;
    const auto parsed = [](const std::string& text) {
        return thrown_by([&] { parse_task_set_string(text); });
    };
    const std::string head = "taskset s\n";
    EXPECT_EQ(parsed(head), "task set 's' has no tasks");
    EXPECT_EQ(parsed(head + "task rx hal release\n"),
              "line 2: task attribute 'release' needs a value");
    EXPECT_EQ(parsed(head + "task rx hal release 1\n"), "line 2: task 'rx' has no deadline");
    EXPECT_EQ(parsed(head + "task rx hal deadline x\n"),
              "line 2: expected integer for deadline, got 'x'");
    EXPECT_EQ(parsed(head + "battery beta\n"),
              "line 2: battery attribute 'beta' needs a value");
    EXPECT_EQ(parsed(head + "battery beta q\n"),
              "line 2: expected number for battery beta, got 'q'");
    EXPECT_EQ(parsed(head + "task rx missing.cdfg deadline 9\n"),
              "line 2: cannot open CDFG file 'missing.cdfg'");
    EXPECT_EQ(parsed(head + "task rx hal deadline 9 library missing.lib\n"),
              "line 2: cannot open library file 'missing.lib'");
    EXPECT_EQ(parsed(head + "task rx hal deadline 60\ntask rx hal deadline 70\n"),
              "task 'rx': duplicate task name");
    EXPECT_EQ(parsed(head + "task rx hal deadline 60 release -1\n"),
              "task 'rx': release must be >= 0");
    EXPECT_EQ(parsed(head + "task rx hal deadline 60 release 60\n"),
              "task 'rx': deadline must exceed the release");
    EXPECT_EQ(parsed(head + "task rx hal deadline 60 iterations 0\n"),
              "task 'rx': iterations must be >= 1");
    EXPECT_EQ(parsed(head + "task rx hal deadline 60 caps 0\n"), "task 'rx': caps must be >= 1");

    task_set set = parse_task_set_string(head + "task rx hal deadline 60\n");
    set.tasks[0].latencies = {0};
    EXPECT_EQ(thrown_by([&] { check_task_set(set); }), "task 'rx': latencies must be >= 1");
    set.tasks[0].latencies = {3, 5, 6};
    EXPECT_EQ(thrown_by([&] { write_task_set_string(set); }),
              "task 'rx': explicit latencies must form an increasing arithmetic "
              "progression to be written as LO..HI..STEP");
    set.tasks[0].latencies.clear();
    set.tasks[0].lib = module_library("other");
    set.tasks[0].lib.add(make_module("any_in", {op_kind::input}, 1, 1, 1));
    set.tasks[0].lib.add(make_module("any_out", {op_kind::output}, 1, 1, 1));
    set.tasks[0].lib.add(
        make_module("any_op", {op_kind::add, op_kind::sub, op_kind::mult, op_kind::comp}, 1, 1, 1));
    EXPECT_EQ(thrown_by([&] { write_task_set_string(set); }),
              "task 'rx': only the default Table 1 library can be written");
    set.tasks[0].lib = module_library("tiny");
    EXPECT_EQ(thrown_by([&] { check_task_set(set); }),
              "task 'rx': library 'tiny' has no module for operation kind 'input' (node 'x')");
    set.tasks[0].lib = table1_library();
    set.tasks[0].g = pin_graph();
    EXPECT_EQ(thrown_by([&] { write_task_set_string(set); }),
              "task 'rx': only built-in benchmark graphs can be written by name "
              "(graph 'pin' is not one)");
}

TEST(error_messages, support_and_space_helpers)
{
    EXPECT_EQ(thrown_by([] { parse_int(" 4x ", "cycles"); }),
              "expected integer for cycles, got '4x'");
    EXPECT_EQ(thrown_by([] { parse_double("", "area"); }), "expected number for area, got ''");

    arg_parser p("tool");
    p.add_flag("--verify", "-v", "run checks");
    EXPECT_EQ(thrown_by([&] { p.has("--nope"); }), "argparse: '--nope' was never registered");
    EXPECT_EQ(thrown_by([&] { p.get("--nope"); }), "argparse: '--nope' was never registered");
    EXPECT_EQ(thrown_by([&] { p.get("--verify"); }),
              "argparse: '--verify' is a flag, not an option");

    ascii_table t({"a", "b"});
    EXPECT_EQ(thrown_by([&] { t.add_row({"1"}); }),
              "ascii_table::add_row: expected 2 cells, got 1");

    csv_writer csv({"a"});
    EXPECT_EQ(thrown_by([&] { csv.save("missing-dir/x.csv"); }),
              "cannot open 'missing-dir/x.csv' for writing");

    EXPECT_EQ(thrown_by([] { fault_arm("site"); }),
              "malformed fault spec 'site' (want site:nth)");
    EXPECT_EQ(thrown_by([] { fault_arm("site:0"); }),
              "malformed fault spec 'site:0': nth must be an integer >= 1");
    fault_clear();

    EXPECT_EQ(thrown_by([] { dse::latency_range{5, 9, 0}.values(); }),
              "latency_range step must be positive, got 0");
    EXPECT_EQ(thrown_by([] { dse::latency_range{5, 3, 1}.values(); }),
              "latency_range is empty: lo 5 > hi 3");
    EXPECT_EQ(thrown_by([] { dse::power_range{1.0, 2.0, 0}.values(); }),
              "power_range count must be >= 1, got 0");
}

} // namespace
} // namespace phls
