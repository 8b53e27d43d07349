// Design-space exploration: sweep the (T, Pmax) constraint plane for the
// cosine (8-point DCT) benchmark and print an area map plus the Pareto
// front at one latency.  This is how a system designer would pick the
// constraint point before committing to a datapath.
//
// The exploration runs as a dse::session: the 7x10 constraint plane is a
// declarative dse::cross space (lazy — the session walks it in chunks,
// nothing is materialised eagerly), one bounded explore_cache owns the
// graph invariants and the report memo across BOTH explorations, and
// the Pareto channel streams *front deltas* (the designs entering and
// leaving the front) the moment each worker finishes.  The final
// summary carries the front and the cache counters.
#include <iostream>
#include <vector>

#include "cdfg/benchmarks.h"
#include "dse/session.h"
#include "flow/explore_cache.h"
#include "flow/flow.h"
#include "flow/pareto_stream.h"
#include "support/strings.h"
#include "support/table.h"

int main()
{
    using namespace phls;
    const graph g = make_cosine();
    const module_library lib = table1_library();

    // Latency axis: from the all-parallel critical path (12) upwards.
    const std::vector<int> latencies = {12, 13, 15, 17, 19, 22, 26};
    // Power axis: shared grid so columns align across rows.
    const std::vector<double> caps = {8, 12, 16, 20, 26, 32, 40, 50, 65, 80};

    // One session owns the cache for the whole program.
    dse::session session(flow::on(g).with_library(lib));

    // Exploration 1: the full plane, delivered through the result
    // channel and folded into one Pareto front per latency row (indices
    // are row-major lattice positions, whatever order the workers
    // finish in).
    const dse::space plane = dse::cross(latencies, caps);
    std::vector<pareto_stream> rows(latencies.size());
    dse::sink plane_sink;
    plane_sink.on_result = [&](std::size_t index, const flow_report& r) {
        rows[index / caps.size()].add(index, r);
    };
    session.explore(plane, plane_sink);

    std::cout << "=== cosine: area as a function of (T, Pmax) ===\n\n";
    std::vector<std::string> headers = {"T \\ Pmax"};
    for (double c : caps) headers.push_back(strf("%.0f", c));
    ascii_table t(std::move(headers));
    for (std::size_t row = 0; row < latencies.size(); ++row) {
        // Each cell shows the row's Figure-2 envelope: the smallest design
        // of the row whose peak fits under the cell's cap.
        std::vector<std::string> cells_text = {strf("T=%d", latencies[row])};
        for (double c : caps) {
            const front_point* p = best_under(rows[row].front(), c);
            cells_text.push_back(p ? strf("%.0f", p->area) : ".");
        }
        t.add_row(std::move(cells_text));
    }
    t.print(std::cout);
    std::cout << "('.' = infeasible: no schedule fits both constraints)\n";

    // Exploration 2: the Pareto front at T=15 on a finer cap grid.  The
    // same session cache keeps serving (the plane above already filled
    // its window and report memos), and the front channel delivers only
    // the *changes* — watch designs displace each other on stderr while
    // the sweep runs.
    const int T = 15;
    const flow at15 =
        flow::on(g).with_library(lib).latency(T).reuse(session.cache());
    const dse::space grid15 = dse::cross({T}, at15.power_grid(24));
    dse::sink front_sink;
    front_sink.on_front = [&](const front_delta& d) {
        for (const front_point& p : d.entered)
            std::cerr << strf("front + peak %.2f area %.0f (cap %.2f)\n", p.peak,
                              p.area, p.cap);
        for (const front_point& p : d.left)
            std::cerr << strf("front - peak %.2f area %.0f (displaced)\n", p.peak,
                              p.area);
    };
    const dse::explore_summary sum = session.explore(grid15, front_sink);

    std::cout << "\n=== Pareto front at T=" << T << " (peak power vs area) ===\n\n";
    ascii_table pf({"peak power", "area", "synthesised at cap"});
    for (const front_point& p : sum.front)
        pf.add_row({strf("%.2f", p.peak), strf("%.0f", p.area), strf("%.2f", p.cap)});
    pf.print(std::cout);

    std::cout << "\nReading guide: moving up-left on the front trades peak power for\n"
                 "area; everything off the front is dominated.\n";
    const explore_cache::counters c = session.cache()->stats();
    std::cout << strf("\nexplore_cache: %ld hits, %ld misses across %zu points\n"
                      "  report memo: %ld hits, %ld misses\n",
                      c.hits, c.misses, plane.size() + grid15.size(), c.report_hits,
                      c.report_misses);
    return 0;
}
