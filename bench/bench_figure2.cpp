// E3 -- regenerates Figure 2 of the paper: circuit area as a function of
// the power constraint, one curve per (benchmark, latency constraint):
//
//   hal (T=10), hal (T=17), cosine (T=12), cosine (T=15), cosine (T=19),
//   elliptic (T=22)
//
// For every curve the power cap is swept over a grid spanning from below
// the infeasibility threshold to above the unconstrained peak.  Rows show
// the cap, achieved peak power and total area; a CSV (figure2.csv) and a
// gnuplot script (figure2.gp) are written next to the binary's working
// directory for re-plotting.
//
// Expected paper shapes (checked and summarised at the end):
//   * each curve has a benchmark/T-dependent minimum feasible power;
//   * area is (weakly) larger near that threshold than on the plateau;
//   * tighter T for the same benchmark costs area and feasible-power range.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "cdfg/benchmarks.h"
#include "dse/session.h"
#include "flow/flow.h"
#include "support/csv.h"
#include "support/strings.h"
#include "support/table.h"
#include "../tests/sweep_util.h"

namespace {

struct curve_spec {
    const char* bench;
    int latency;
};

} // namespace

int main()
{
    using namespace phls;
    const module_library lib = table1_library();
    const std::vector<curve_spec> curves = {{"hal", 10},    {"hal", 17},    {"cosine", 12},
                                            {"cosine", 15}, {"cosine", 19}, {"elliptic", 22}};

    std::cout << "=== Figure 2: power vs. area under different time constraints ===\n";

    csv_writer csv({"curve", "benchmark", "T", "cap", "feasible", "peak", "area"});
    struct curve_summary {
        std::string name;
        double min_feasible_cap = -1.0;
        double area_at_cliff = 0.0;
        double area_plateau = 0.0;
    };
    std::vector<curve_summary> summaries;

    for (const curve_spec& spec : curves) {
        const graph g = benchmark_by_name(spec.bench);
        const std::string curve_name = strf("%s (T=%d)", spec.bench, spec.latency);
        std::cout << "\n--- " << curve_name << " ---\n";

        // The full cap grid for this curve runs through a dse::session
        // (one worker per core; reports are collected by grid index).
        const flow f = flow::on(g).with_library(lib).latency(spec.latency);
        std::vector<synthesis_constraints> grid;
        for (double cap : f.power_grid(24)) grid.push_back({spec.latency, cap});
        std::vector<flow_report> raw;
        const dse::explore_summary sum =
            dse::session(f).explore(dse::list(grid), collector(raw));

        // Headline curve: best design found whose achieved peak satisfies
        // the cap (a tight-cap design is valid at looser caps too).
        ascii_table t({"Pmax", "feasible", "peak", "area", "raw area"});
        struct envelope_point {
            double cap, area;
        };
        std::vector<envelope_point> feasible;
        for (const flow_report& r : raw) {
            const double cap = r.constraints.max_power;
            const front_point* p = best_under(sum.front, cap);
            t.add_row({strf("%.2f", cap), p ? "yes" : "no", p ? strf("%.2f", p->peak) : "-",
                       p ? strf("%.0f", p->area) : "-",
                       r.st.ok() ? strf("%.0f", r.area) : "-"});
            csv.add_row({curve_name, spec.bench, std::to_string(spec.latency),
                         strf("%.4f", cap), p ? "1" : "0", p ? strf("%.4f", p->peak) : "",
                         p ? strf("%.2f", p->area) : ""});
            if (p) feasible.push_back({cap, p->area});
        }
        t.print(std::cout);

        // Summary robust to greedy wobble: the cliff is the most expensive
        // design in the tightest third of feasible caps, the plateau the
        // cheapest design in the loosest third.
        curve_summary summary;
        summary.name = curve_name;
        if (!feasible.empty()) {
            summary.min_feasible_cap = feasible.front().cap;
            const std::size_t third = std::max<std::size_t>(1, feasible.size() / 3);
            for (std::size_t i = 0; i < third; ++i)
                summary.area_at_cliff = std::max(summary.area_at_cliff, feasible[i].area);
            summary.area_plateau = feasible.back().area;
            for (std::size_t i = feasible.size() - third; i < feasible.size(); ++i)
                summary.area_plateau = std::min(summary.area_plateau, feasible[i].area);
        }
        summaries.push_back(summary);
    }

    csv.save("figure2.csv");
    {
        std::ofstream gp("figure2.gp");
        gp << "# gnuplot script regenerating the paper's Figure 2 from figure2.csv\n"
              "set datafile separator ','\n"
              "set xlabel 'Power'\nset ylabel 'Area'\nset key top right\n"
              "set title 'Power vs. area under different time constraints'\n"
              "plot for [c in \"hal_(T=10) hal_(T=17) cosine_(T=12) cosine_(T=15) "
              "cosine_(T=19) elliptic_(T=22)\"] \\\n"
              "  'figure2.csv' using 4:($5==1?$7:1/0):(strcol(1)) \\\n"
              "  smooth unique title c\n";
    }

    std::cout << "\n=== Curve summaries (paper-shape checks) ===\n";
    ascii_table s({"curve", "min feasible P", "area@cliff", "area@plateau", "cliff>=plateau"});
    bool all_shapes = true;
    for (const curve_summary& c : summaries) {
        // 2 % tolerance: a flat curve (elliptic) still counts as the
        // paper's "small amount of area" trade.
        const bool ok =
            c.min_feasible_cap >= 0.0 && c.area_at_cliff >= 0.98 * c.area_plateau;
        all_shapes = all_shapes && ok;
        s.add_row({c.name, strf("%.2f", c.min_feasible_cap), strf("%.0f", c.area_at_cliff),
                   strf("%.0f", c.area_plateau), ok ? "yes" : "NO"});
    }
    s.print(std::cout);
    std::cout << "\nwrote figure2.csv and figure2.gp\n";
    std::cout << "paper shape (area can be traded for power feasibility): "
              << (all_shapes ? "YES" : "NO") << '\n';
    return all_shapes ? 0 : 1;
}
