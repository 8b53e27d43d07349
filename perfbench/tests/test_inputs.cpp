// The benchmark's inputs are text-born: every workload graph and task
// set is written as text and parsed back before use.  This test asserts
// that each such text is a fixed point of the round trip, for every
// variant the seeds select, and prints the operand-order finding the
// round trip exposes on hal (see perfbench/README.md).
//
//   ctest --test-dir .bench_build      # or run perfbench_inputs_test
#include <filesystem>
#include <iostream>
#include <map>

#include "cdfg/benchmarks.h"
#include "cdfg/textio.h"
#include "flow/flow.h"
#include "inputs.h"
#include "task/set.h"

namespace {

using namespace perfbench;
using namespace phls;

int failures = 0;

void expect(bool ok, const std::string& what)
{
    if (!ok) {
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

bool fixed_point(const std::string& text)
{
    return write_cdfg_string(parse_cdfg_string(text)) == text;
}

} // namespace

int main()
{
    const module_library lib = table1_library();
    for (int v = 0; v < input_variants; ++v) {
        const std::vector<std::string> texts = synth_dag_texts(v);
        for (const std::string& t : texts)
            expect(fixed_point(t), "synth-dag variant " + std::to_string(v));
        expect(parse_dags(texts, lib).size() == texts.size(),
               "synth-dag variant " + std::to_string(v) + " points");
    }

    for (const std::uint64_t seed : {0ull, 1ull, 12345ull}) {
        const plane_input p = make_plane_input(seed);
        expect(fixed_point(p.text), "plane graph");
        expect(p.points.size() == 10000, "plane size");
    }

    const std::string dir = (std::filesystem::temp_directory_path() /
                             ("perfbench_inputs_test_" + std::to_string(::getpid())))
                                .string();
    std::filesystem::create_directories(dir);
    for (int v = 0; v < input_variants; ++v) {
        const tasks_input in = write_tasks_input(v, dir);
        for (const std::string& path : in.graph_files)
            expect(fixed_point(read_file(path)), "task graph " + path);
        const task::task_set set = task::parse_task_set_string(in.set_text);
        expect(set.tasks.size() == static_cast<std::size_t>(tasks_count), "task count");
        for (const task::task_spec& t : set.tasks)
            expect(fixed_point(write_cdfg_string(t.g)), "task " + t.name + " graph");
    }
    std::filesystem::remove_all(dir);

    // The finding: the first round trip reorders some kernels' operands,
    // and the interconnect area follows the operand order.
    std::cout << "finding: operand order changed by one text round trip in:";
    for (const std::string& name : benchmark_names()) {
        const graph g = benchmark_by_name(name);
        const graph back = parse_cdfg_string(write_cdfg_string(g));
        const auto operands = [](const graph& h) {
            std::map<std::string, std::vector<std::string>> m;
            for (node_id v : h.node_ids())
                for (node_id p : h.preds(v)) m[h.label(v)].push_back(h.label(p));
            return m;
        };
        if (operands(g) != operands(back)) std::cout << ' ' << name;
    }
    std::cout << '\n';
    const graph direct = make_hal();
    const graph text_born = parse_cdfg_string(write_cdfg_string(direct));
    const synthesis_constraints c{34, 2.0 + 18.0 * 20.0 / 499.0};
    const double a0 = flow::on(direct).constraints(c).run().area;
    const double a1 = flow::on(text_born).constraints(c).run().area;
    std::cout << "finding: hal T=34 Pmax=" << c.max_power << ": area " << a0
              << " in-process, " << a1 << " after one text round trip\n";

    std::cout << (failures == 0 ? "all inputs are round-trip fixed points\n" : "FAILED\n");
    return failures == 0 ? 0 : 1;
}
