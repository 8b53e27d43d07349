// E6 -- algorithmic cost (google-benchmark): scheduler and synthesis
// runtimes on the paper benchmarks and on random layered DAGs of growing
// size.  Not a paper artefact; standard engineering hygiene for a
// release.
#include <benchmark/benchmark.h>

#include "cdfg/analysis.h"
#include "cdfg/benchmarks.h"
#include "cdfg/random_dag.h"
#include "dse/session.h"
#include "flow/flow.h"
#include "sched/mobility.h"
#include "sched/pasap.h"

namespace {

using namespace phls;

void bm_pasap_random(benchmark::State& state)
{
    const int ops = static_cast<int>(state.range(0));
    random_dag_params params;
    params.operations = ops;
    params.inputs = std::max(2, ops / 8);
    params.layers = std::max(2, ops / 6);
    const graph g = random_dag(params, 42);
    const module_library lib = table1_library();
    const module_assignment a = fastest_assignment(g, lib, 10.0);
    for (auto _ : state) {
        const pasap_result r = pasap(g, lib, a, 10.0);
        benchmark::DoNotOptimize(r.feasible);
    }
    state.SetComplexityN(ops);
}
BENCHMARK(bm_pasap_random)->Arg(20)->Arg(50)->Arg(100)->Arg(200)->Complexity();

void bm_power_windows_random(benchmark::State& state)
{
    const int ops = static_cast<int>(state.range(0));
    random_dag_params params;
    params.operations = ops;
    const graph g = random_dag(params, 7);
    const module_library lib = table1_library();
    const module_assignment a = fastest_assignment(g, lib, 12.0);
    const int latency = 4 * critical_path_length(g, [&](node_id v) {
                            return lib.module(a[v.index()]).latency;
                        });
    for (auto _ : state) {
        const time_windows w = power_windows(g, lib, a, 12.0, latency);
        benchmark::DoNotOptimize(w.feasible);
    }
}
BENCHMARK(bm_power_windows_random)->Arg(20)->Arg(50)->Arg(100);

void bm_synthesize_benchmark(benchmark::State& state, const char* name, int T)
{
    const graph g = benchmark_by_name(name);
    const module_library lib = table1_library();
    // The probe design's own peak is always an achievable cap, so the
    // loop below times the feasible (full-work) path.
    const synthesis_result probe = synthesize(g, lib, {T, unbounded_power});
    const double cap = probe.feasible ? probe.dp.peak_power(lib) : 10.0;
    for (auto _ : state) {
        const synthesis_result r = synthesize(g, lib, {T, cap});
        benchmark::DoNotOptimize(r.feasible);
    }
}
BENCHMARK_CAPTURE(bm_synthesize_benchmark, hal_T17, "hal", 17);
BENCHMARK_CAPTURE(bm_synthesize_benchmark, cosine_T15, "cosine", 15);
BENCHMARK_CAPTURE(bm_synthesize_benchmark, elliptic_T22, "elliptic", 22);

void bm_synthesize_random(benchmark::State& state)
{
    const int ops = static_cast<int>(state.range(0));
    random_dag_params params;
    params.operations = ops;
    const graph g = random_dag(params, 11);
    const module_library lib = table1_library();
    const module_assignment a = cheapest_assignment(g, lib, unbounded_power);
    const int latency = 2 * critical_path_length(g, [&](node_id v) {
                            return lib.module(a[v.index()]).latency;
                        });
    for (auto _ : state) {
        const synthesis_result r = synthesize(g, lib, {latency, 15.0});
        benchmark::DoNotOptimize(r.feasible);
    }
    state.SetComplexityN(ops);
}
BENCHMARK(bm_synthesize_random)->Arg(20)->Arg(40)->Arg(80)->Unit(benchmark::kMillisecond)->Complexity();

void bm_flow_batch(benchmark::State& state)
{
    const int threads = static_cast<int>(state.range(0));
    const graph g = make_elliptic();
    const module_library lib = table1_library();
    const flow f = flow::on(g).with_library(lib).latency(22);
    std::vector<synthesis_constraints> grid;
    for (double cap : f.power_grid(20)) grid.push_back({22, cap});
    for (auto _ : state) {
        const dse::explore_summary sum = dse::session(f).explore(dse::list(grid), {}, threads);
        benchmark::DoNotOptimize(sum.evaluated);
    }
}
BENCHMARK(bm_flow_batch)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
