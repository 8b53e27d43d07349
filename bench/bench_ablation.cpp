// E5 -- ablations of the heuristic's design choices (DESIGN.md §5):
//
//   * prospect policy: both (default) vs fastest-only vs cheapest-only;
//   * backtrack-and-lock (paper's feasibility mechanism) vs skip-only;
//   * lock-from-start (schedule-then-bind) vs integrated decisions;
//   * cheapest-module rebinding of leftover singletons on/off;
//   * pasap pick order: critical-path vs topological.
//
// Each variant synthesises the three paper benchmarks at a mid-range
// power cap (60 % of the unconstrained peak) and reports area, achieved
// peak and heuristic counters.
#include <functional>
#include <iostream>
#include <vector>

#include "cdfg/benchmarks.h"
#include "flow/flow.h"
#include "support/strings.h"
#include "support/table.h"
#include "../tests/sweep_util.h"

namespace {

struct variant {
    const char* name;
    std::function<void(phls::synthesis_options&)> tweak;
};

} // namespace

int main()
{
    using namespace phls;
    const module_library lib = table1_library();

    const std::vector<variant> variants = {
        {"default (both prospects, lock, rebind)", [](synthesis_options&) {}},
        {"prospect fastest only",
         [](synthesis_options& o) {
             o.try_both_prospects = false;
             o.policy = prospect_policy::fastest_fit;
         }},
        {"prospect cheapest only",
         [](synthesis_options& o) {
             o.try_both_prospects = false;
             o.policy = prospect_policy::cheapest_fit;
         }},
        {"no backtrack-and-lock (skip failed decisions)",
         [](synthesis_options& o) { o.enable_backtrack_lock = false; }},
        {"lock from start (schedule-then-bind)",
         [](synthesis_options& o) { o.lock_from_start = true; }},
        {"no cheapest rebind of singletons",
         [](synthesis_options& o) { o.allow_cheapest_rebind = false; }},
        {"pasap topological order",
         [](synthesis_options& o) { o.order = pasap_order::topological; }},
        {"FU area only (no interconnect model)",
         [](synthesis_options& o) { o.costs.include_interconnect = false; }},
    };

    std::cout << "=== E5: ablation of heuristic design choices ===\n";
    for (const auto& [bench, T] :
         {std::pair<const char*, int>{"hal", 17}, {"cosine", 15}, {"elliptic", 22}}) {
        const graph g = benchmark_by_name(bench);
        const flow f = flow::on(g).with_library(lib).latency(T);
        // A challenging but feasible cap: 25 % above the feasibility
        // cliff found on the default power grid (explored on a session).
        std::vector<synthesis_constraints> grid;
        for (double cap : f.power_grid(16)) grid.push_back({T, cap});
        double cliff = -1.0;
        for (const flow_report& r : explore_all(f, grid)) {
            if (r.st.ok()) {
                cliff = r.constraints.max_power;
                break;
            }
        }
        if (cliff < 0.0) {
            std::cout << bench << ": no feasible cap found\n";
            return 1;
        }
        const double cap = 1.25 * cliff;

        std::cout << strf("\n--- %s (T=%d, Pmax=%.2f) ---\n", bench, T, cap);
        ascii_table t({"variant", "feasible", "area", "peak", "merges", "rejected", "locked"});
        t.set_align(0, align::left);
        for (const variant& v : variants) {
            synthesis_options opts;
            v.tweak(opts);
            const flow_report r =
                flow::on(g).with_library(lib).latency(T).power_cap(cap).options(opts).run();
            if (!r.st.ok()) {
                t.add_row({v.name, "no", "-", "-", "-", "-", "-"});
                continue;
            }
            t.add_row({v.name, "yes", strf("%.0f", r.area), strf("%.2f", r.peak),
                       std::to_string(r.stats.merges), std::to_string(r.stats.rejected),
                       r.stats.locked ? "yes" : "no"});
        }
        t.print(std::cout);
    }
    std::cout << "\nReading guide: 'default' should be the lowest (or tied-lowest) area\n"
                 "row per benchmark; 'lock from start' shows what integrating\n"
                 "scheduling with binding buys; single-prospect rows show why the\n"
                 "FU-type exploration matters.\n";
    return 0;
}
