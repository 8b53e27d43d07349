#include "inputs.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "cdfg/analysis.h"
#include "cdfg/benchmarks.h"
#include "cdfg/random_dag.h"
#include "cdfg/textio.h"
#include "sched/pasap.h"
#include "support/errors.h"
#include "support/rng.h"
#include "support/strings.h"

namespace perfbench {

using namespace phls;

int variant_of(std::uint64_t seed) { return static_cast<int>(seed % input_variants); }

std::string canonical_text(const graph& g)
{
    std::string text = write_cdfg_string(g);
    for (int pass = 0; pass < 4; ++pass) {
        std::string again = write_cdfg_string(parse_cdfg_string(text));
        if (again == text) return text;
        text = std::move(again);
    }
    throw error("CDFG text of '" + g.name() + "' has no round-trip fixed point");
}

std::string digest(const std::string& bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return strf("%016llx", static_cast<unsigned long long>(h));
}

std::vector<std::string> synth_dag_texts(int variant)
{
    rng r(0x5eed0000ULL + static_cast<std::uint64_t>(variant));
    std::vector<std::string> texts;
    for (int i = 0; i < synth_dag_count; ++i) {
        const int n = synth_dag_ops;
        graph g = random_dag({n, std::max(4, n / 12), 10, 0.0, 0.05, 0.8}, r.next());
        g.set_name(strf("dag%d_v%d", i, variant));
        texts.push_back(canonical_text(g));
    }
    return texts;
}

std::vector<dag_input> parse_dags(const std::vector<std::string>& texts,
                                  const module_library& lib)
{
    double hungriest = 0.0;
    for (const fu_module& m : lib.modules()) hungriest = std::max(hungriest, m.power);
    const double cap = 2.5 * hungriest;
    std::vector<dag_input> dags;
    for (const std::string& text : texts) {
        graph g = parse_cdfg_string(text);
        const pasap_result lo = pasap(g, lib, fastest_assignment(g, lib, cap), cap);
        check(lo.feasible, "synth-dag input " + g.name() + ": pasap infeasible: " + lo.reason);
        const int latency = lo.sched.latency(lib) + 4;
        dags.push_back({text, std::move(g), {latency, cap}});
    }
    return dags;
}

plane_input make_plane_input(std::uint64_t seed)
{
    plane_input in;
    in.text = canonical_text(make_hal());
    in.g = parse_cdfg_string(in.text);
    for (int T = 17; T < 37; ++T)
        for (int i = 0; i < 500; ++i)
            in.points.push_back({T, 2.0 + 18.0 * static_cast<double>(i) / 499.0});
    rng r(seed);
    for (std::size_t i = in.points.size() - 1; i > 0; --i)
        std::swap(in.points[i], in.points[r.next() % (i + 1)]);
    return in;
}

tasks_input write_tasks_input(int variant, const std::string& dir)
{
    const module_library lib = table1_library();
    tasks_input in;
    std::vector<int> critical_path;
    for (const std::string& name : benchmark_names()) {
        const graph g = benchmark_by_name(name);
        const std::string path = dir + "/" + name + ".cdfg";
        std::ofstream(path) << canonical_text(g);
        in.graph_files.push_back(path);
        const module_assignment fast = fastest_assignment(g, lib, unbounded_power);
        critical_path.push_back(critical_path_length(
            g, [&](node_id v) { return lib.module(fast[v.index()]).latency; }));
    }

    std::ostringstream os;
    os << "taskset mix" << variant << "\n"
       << "envelope 12.0\n"
       << "battery beta 0.1 cycle 0.5 idle 4\n";
    rng r(0x7a5c0000ULL + static_cast<std::uint64_t>(variant));
    const std::size_t kernels = in.graph_files.size();
    for (int t = 0; t < tasks_count; ++t) {
        // The per-iteration deadline budget (3..6 fastest critical paths)
        // depends on the task's slot only, so every variant explores the
        // same 28 candidate spaces; the seed moves releases and iteration
        // counts, which is what the packer sees.
        const std::size_t k = static_cast<std::size_t>(t) % kernels;
        const int budget = (3 + t / static_cast<int>(kernels)) * critical_path[k];
        const int release = 8 * t + r.uniform_int(0, 7);
        const int iterations = r.uniform_int(1, 3);
        const int deadline = release + iterations * budget;
        os << strf("task t%02d %s deadline %d release %d iterations %d\n", t,
                   in.graph_files[k].c_str(), deadline, release, iterations);
    }
    in.set_text = os.str();
    return in;
}

std::string read_file(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    check(is.good(), "cannot open '" + path + "'");
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

} // namespace perfbench
