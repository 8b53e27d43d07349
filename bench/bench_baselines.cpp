// E7 -- the paper's integrated algorithm against the two algorithm
// families of its related work (§1):
//
//   (a) two-step: time-constrained synthesis first, then reorder the
//       schedule to cut the peak (refs [1,2] style);
//   (b) schedule-then-bind: force-directed scheduling (power-oblivious)
//       followed by greedy binding.
//
// For each paper benchmark at its paper latency constraints and a cap of
// 60 % of the unconstrained peak, the table reports whether each flow
// meets the cap and at what area.  The integrated flow is the only one
// that *guarantees* the cap (it treats power as a constraint, not a
// post-pass objective).
#include <iostream>

#include "cdfg/benchmarks.h"
#include "flow/flow.h"
#include "support/strings.h"
#include "support/table.h"
#include "../tests/sweep_util.h"

int main()
{
    using namespace phls;
    const module_library lib = table1_library();

    std::cout << "=== E7: integrated algorithm vs. baseline flows ===\n\n";
    ascii_table t({"benchmark", "T", "Pmax", "flow", "meets P", "peak", "area"});
    t.set_align(3, align::left);

    bool integrated_always_meets = true;
    for (const auto& [bench, T] :
         {std::pair<const char*, int>{"hal", 10}, {"hal", 17}, {"cosine", 12},
          {"cosine", 15}, {"cosine", 19}, {"elliptic", 22}}) {
        const graph g = benchmark_by_name(bench);
        flow f = flow::on(g).with_library(lib).latency(T);
        // A challenging but feasible cap: 25 % above the feasibility cliff.
        std::vector<synthesis_constraints> grid;
        for (double c : f.power_grid(16)) grid.push_back({T, c});
        double cliff = -1.0;
        for (const flow_report& r : explore_all(f, grid)) {
            if (r.st.ok()) {
                cliff = r.constraints.max_power;
                break;
            }
        }
        if (cliff < 0.0) continue;
        const double cap = 1.25 * cliff;
        const std::string caps = strf("%.2f", cap);
        f.power_cap(cap);

        // All three flows are the same pipeline with a different
        // registered synthesizer strategy.
        const flow_report integrated = f.synthesizer("greedy").run();
        if (integrated.has_design) {
            integrated_always_meets = integrated_always_meets && integrated.st.ok();
            t.add_row({bench, std::to_string(T), caps, "integrated (paper)",
                       integrated.st.ok() ? "yes" : "NO", strf("%.2f", integrated.peak),
                       strf("%.0f", integrated.area)});
        } else {
            t.add_row({bench, std::to_string(T), caps, "integrated (paper)", "infeasible",
                       "-", "-"});
        }

        // Two-step baseline: a design exists even when it misses the cap
        // (st is infeasible but has_design holds the inspectable result).
        const flow_report ts = f.synthesizer("two_step").run();
        if (ts.has_design) {
            t.add_row({bench, std::to_string(T), caps, "two-step (" + ts.note + ")",
                       ts.st.ok() ? "yes" : "NO", strf("%.2f", ts.peak),
                       strf("%.0f", ts.area)});
        }

        // Schedule-then-bind with force-directed scheduling.
        const flow_report fds = f.synthesizer("fds_bind").run();
        if (fds.has_design) {
            t.add_row({bench, std::to_string(T), caps, "FDS + greedy bind",
                       fds.st.ok() ? "yes" : "NO", strf("%.2f", fds.peak),
                       strf("%.0f", fds.area)});
        }
        t.add_separator();
    }
    t.print(std::cout);

    std::cout << "\nintegrated flow met its cap on every feasible point: "
              << (integrated_always_meets ? "YES" : "NO") << '\n';
    return integrated_always_meets ? 0 : 1;
}
