// Sweep scaling and cache reuse: dse::session::explore over a
// Figure-2-style power grid at several worker-pool sizes against the
// uncached sequential flow::run() reference, plus a 2-D (T, Pmax) grid
// with duplicate points exercising the explore_cache's report memo.
//
// Checks and gates:
//   * determinism -- reports are byte-identical for every thread count
//     AND to the uncached sequential reference (each point is claimed by
//     exactly one worker and delivered at its own index, synthesis is
//     deterministic, and every cached value is a pure function of the
//     problem);
//   * cache reuse -- a >= 24-point sweep over one (graph, lib) serves
//     reachability and prospect tables from the shared explore_cache
//     (hit counter printed per benchmark, and required to be positive);
//   * report memo -- a 120-point 2-D grid with duplicates must take
//     whole-report hits and stay byte-identical cached and uncached and
//     across thread counts;
//   * incremental Pareto -- the front streamed through a session's front
//     channel must equal the front computed post-hoc from the collected
//     reports;
//   * scaling -- wall-clock time drops as workers are added.  The
//     4-worker elliptic sweep must beat the uncached sequential
//     reference by >= 2x (hard gate) on a host with >= 4 hardware
//     threads, and only when that reference gives each of the 4 workers
//     at least scaling_floor_ms_per_worker of work; otherwise the
//     speedup is reported but not gated (a single-core host is ~1x by
//     construction, and a few-millisecond sweep is timing noise);
//   * dse::session -- a cold, unbounded session explore over the same
//     duplicate-heavy grid is byte-identical to the sequential reference;
//     replaying the streamed front *deltas* reconstructs the final front;
//     a session warm-started from a save()d cache file answers every
//     point at the metric level, matches the reference metrics and front,
//     and beats the cold wall time; a memo-bounded session never holds
//     more full reports than its capacity while still serving evicted
//     duplicates as metric records; dse::refine evaluates a subset of
//     the lattice yet lands on the same final front as the eager grid;
//   * guided exploration -- explore_guided over a 10^4-point (T, Pmax)
//     plane must land on the EXACT eager front while evaluating at most
//     25% of the plane, its counters must partition the space, and the
//     guided walk must beat the eager walk on wall time;
//   * delivery convoy -- a cold eager explore of the same plane in a
//     seeded order, lifetime stage on, with a sink that formats every
//     report as the end-to-end benchmark's point_line does, on 1 and 4
//     threads: wall, CPU and system time are reported per thread
//     count, and the per-point projections must be identical.  No
//     speed gate.
//
// The machine-readable summary (points/sec, hit rates, warm vs cold
// wall time, gate results) is written to BENCH_batch_sweep.json so the
// perf trajectory is comparable across changes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <utility>
#include <vector>

#include "cdfg/benchmarks.h"
#include "dse/session.h"
#include "flow/explore_cache.h"
#include "flow/flow.h"
#include "flow/pareto_stream.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/table.h"
#include "../tests/sweep_util.h"

namespace {

/// The 4-thread scaling gate is hard only when the uncached sequential
/// sweep holds at least this much work per worker: below it, thread
/// start-up and one slow point decide the ratio, not the scaling.
constexpr double scaling_floor_ms_per_worker = 100.0;

double run_ms(const std::function<void()>& fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
}

bool identical(const std::vector<phls::flow_report>& a,
               const std::vector<phls::flow_report>& b)
{
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].to_string() != b[i].to_string()) return false;
    return true;
}

/// User and system CPU seconds this process has used so far, all
/// threads together.
std::pair<double, double> cpu_seconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    return {seconds(u.ru_utime), seconds(u.ru_stime)};
}

/// One point's metric projection, formatted as perfbench's point_line.
std::string point_line(const phls::flow_report& r)
{
    return phls::strf("%d %.17g %s %d %.17g %.17g %d %d %.17g\n", r.constraints.latency,
                      r.constraints.max_power, phls::status_code_name(r.st.code),
                      r.has_design ? 1 : 0, r.area, r.peak, r.latency,
                      r.has_lifetime ? 1 : 0, r.lifetime_seconds);
}

/// Metric-level equality: what a warm-started session guarantees (the
/// datapath is not persisted, the outcome and achieved metrics are).
bool metric_identical(const phls::flow_report& a, const phls::flow_report& b)
{
    return a.st.code == b.st.code && a.st.message == b.st.message &&
           a.constraints.latency == b.constraints.latency &&
           a.constraints.max_power == b.constraints.max_power &&
           a.has_design == b.has_design && a.area == b.area && a.peak == b.peak &&
           a.latency == b.latency && a.has_lifetime == b.has_lifetime &&
           a.lifetime_seconds == b.lifetime_seconds;
}

} // namespace

int main()
{
    using namespace phls;
    const module_library lib = table1_library();
    const unsigned cores = std::thread::hardware_concurrency();

    std::cout << "=== dse::session scaling on a 24-point power grid ===\n";
    std::cout << "hardware threads: " << cores << "\n\n";

    bool all_identical = true;
    bool all_hit = true;
    double speedup_at_4 = 0.0;
    double elliptic_uncached_ms = 0.0;
    for (const auto& [bench, T] : {std::pair<const char*, int>{"hal", 17},
                                   {"cosine", 15}, {"elliptic", 22}}) {
        const graph g = benchmark_by_name(bench);
        const flow f = flow::on(g).with_library(lib).latency(T);
        std::vector<synthesis_constraints> grid;
        for (double cap : f.power_grid(24)) grid.push_back({T, cap});

        // Uncached sequential reference (the pre-cache engine behaviour).
        std::vector<flow_report> reference;
        const double ms_uncached = run_ms([&] { reference = run_each(f, grid); });

        // A one-worker session over its cache: must be byte-identical,
        // with every point past the first hitting the cache.
        dse::session cached(f);
        std::vector<flow_report> with_cache;
        const double ms_cached =
            run_ms([&] { cached.explore(dse::list(grid), collector(with_cache), 1); });
        const bool cache_identical = identical(with_cache, reference);
        all_identical = all_identical && cache_identical;
        const explore_cache::counters cc = cached.cache()->stats();
        all_hit = all_hit && cc.hits > 0;

        ascii_table t({"threads", "cache", "wall (ms)", "per point (ms)", "speedup",
                       "identical"});
        t.add_row({"1", "off", strf("%.1f", ms_uncached),
                   strf("%.2f", ms_uncached / grid.size()), "1.00x", "ref"});
        t.add_row({"1", "on", strf("%.1f", ms_cached),
                   strf("%.2f", ms_cached / grid.size()),
                   strf("%.2fx", ms_uncached / ms_cached),
                   cache_identical ? "yes" : "NO"});
        for (int threads : {2, 4, 8}) {
            std::vector<flow_report> reports;
            const double ms = run_ms([&] { reports = explore_all(f, grid, threads); });
            const bool same = identical(reports, reference);
            all_identical = all_identical && same;
            if (threads == 4 && bench == std::string("elliptic")) {
                speedup_at_4 = ms_uncached / ms;
                elliptic_uncached_ms = ms_uncached;
            }
            t.add_row({std::to_string(threads), "on", strf("%.1f", ms),
                       strf("%.2f", ms / grid.size()),
                       strf("%.2fx", ms_uncached / ms), same ? "yes" : "NO"});
        }
        std::cout << "--- " << bench << " (T=" << T << ", "
                  << grid.size() << " points) ---\n";
        t.print(std::cout);
        int feasible = 0;
        for (const flow_report& r : reference) feasible += r.st.ok() ? 1 : 0;
        std::cout << feasible << "/" << reference.size() << " points feasible; "
                  << strf("explore_cache: %ld hits, %ld misses; report memo: %ld hits, "
                          "%ld misses\n\n",
                          cc.hits, cc.misses, cc.report_hits, cc.report_misses);
    }

    // ---- report memo on a duplicate-heavy 2-D (T, Pmax) grid ----
    //
    // Each (T, cap) point appears twice, as a dense DSE grid or a
    // repeated CLI sweep would produce: the first evaluation computes
    // the point, the duplicate is served whole from the report memo.
    std::cout << "=== report memo on a 2-D (T, Pmax) grid with duplicates ===\n";
    const graph g2 = make_hal();
    const flow base2 = flow::on(g2).with_library(lib).latency(17);
    const std::vector<int> lat2 = {17, 19, 21};
    const std::vector<double> caps20 = base2.power_grid(20);
    std::vector<synthesis_constraints> grid2;
    for (int T : lat2)
        for (double cap : caps20) grid2.push_back({T, cap});
    const std::size_t distinct = grid2.size();
    const std::vector<synthesis_constraints> once = grid2; // self-insert is UB
    grid2.insert(grid2.end(), once.begin(), once.end());   // exact duplicates
    std::cout << grid2.size() << " points (" << distinct << " distinct)\n\n";

    const flow plain2 = flow::on(g2).with_library(lib);
    std::vector<flow_report> ref2;
    const double ms2_off = run_ms([&] { ref2 = run_each(plain2, grid2); });

    dse::session cached2(plain2);
    std::vector<flow_report> rep2;
    const double ms2_cached =
        run_ms([&] { cached2.explore(dse::list(grid2), collector(rep2), 1); });
    const explore_cache::counters c2 = cached2.cache()->stats();

    bool grid_identical = identical(ref2, rep2);
    for (int threads : {2, 8})
        grid_identical = grid_identical && identical(ref2, explore_all(plain2, grid2, threads));

    // The streamed incremental front must equal the post-hoc one.
    std::size_t delivered = 0;
    std::vector<front_delta> front_changes;
    std::vector<flow_report> rep_pareto(grid2.size());
    dse::sink pareto_sink;
    pareto_sink.on_result = [&](std::size_t i, const flow_report& r) {
        ++delivered;
        rep_pareto[i] = r;
    };
    pareto_sink.on_front = [&](const front_delta& d) { front_changes.push_back(d); };
    dse::session(plain2).explore(dse::list(grid2), pareto_sink, 2);
    const std::vector<front_point> streamed_front = replay_front(front_changes);
    const std::vector<front_point> posthoc_front = pareto_points(rep_pareto);
    const bool pareto_matches = streamed_front == posthoc_front &&
                                delivered == grid2.size() &&
                                identical(rep_pareto, ref2);

    ascii_table t2({"cache", "wall (ms)", "speedup", "identical"});
    t2.add_row({"off", strf("%.1f", ms2_off), "1.00x", "ref"});
    t2.add_row({"on", strf("%.1f", ms2_cached), strf("%.2fx", ms2_off / ms2_cached),
                identical(ref2, rep2) ? "yes" : "NO"});
    t2.print(std::cout);
    std::cout << strf("cache counters: invariants %ld hits / %ld misses, report memo "
                      "%ld hits / %ld misses\n",
                      c2.hits, c2.misses, c2.report_hits, c2.report_misses);
    std::cout << strf("incremental Pareto front: %zu points, %zu changes over %zu "
                      "deliveries\n\n",
                      streamed_front.size(), front_changes.size(), delivered);

    // ---- dse::session: delta streaming, persistence, bounded memo ----
    //
    // Cold + unbounded, a session must be byte-identical to the
    // sequential reference; its persisted cache file must make a
    // second process-equivalent run answer every point at the metric
    // level, match the reference metrics and front, and beat the cold
    // wall time; a bounded memo must respect its capacity while evicted
    // duplicates still answer as metric records; refine must land on the
    // eager grid's front while evaluating fewer lattice points.
    std::cout << "=== dse::session on the duplicate-heavy grid ===\n";
    const char* cache_file = "bench_batch_sweep.phlscache";
    std::remove(cache_file);

    dse::session cold(flow::on(g2).with_library(lib));
    std::vector<flow_report> ses_reports(grid2.size());
    std::vector<front_delta> deltas;
    dse::sink cold_sink;
    cold_sink.on_result = [&](std::size_t i, const flow_report& r) {
        ses_reports[i] = r;
    };
    cold_sink.on_front = [&](const front_delta& d) { deltas.push_back(d); };
    dse::explore_summary cold_sum;
    const double ms_cold = run_ms(
        [&] { cold_sum = cold.explore(dse::list(grid2), cold_sink, 1); });
    const bool session_identical = identical(ses_reports, ref2);
    cold.save(cache_file);

    // Replaying the streamed deltas must reconstruct the final front.
    const bool deltas_ok =
        replay_front(deltas) == cold_sum.front && cold_sum.front == pareto_points(ref2);

    dse::session warm(flow::on(g2).with_library(lib));
    warm.load(cache_file);
    std::vector<flow_report> warm_reports(grid2.size());
    dse::sink warm_sink;
    warm_sink.on_result = [&](std::size_t i, const flow_report& r) {
        warm_reports[i] = r;
    };
    dse::explore_summary warm_sum;
    const double ms_warm = run_ms(
        [&] { warm_sum = warm.explore(dse::list(grid2), warm_sink, 1); });
    bool warm_matches = warm_sum.front == cold_sum.front &&
                        warm_sum.metric_served == grid2.size();
    for (std::size_t i = 0; i < grid2.size(); ++i)
        warm_matches = warm_matches && metric_identical(warm_reports[i], ref2[i]);
    const bool warm_faster = ms_warm < ms_cold;
    std::remove(cache_file);

    // A small chunk puts the duplicate half of the grid in later chunks
    // than the originals, so the scan actually meets evicted entries and
    // the metric fallback (not just run_point's in-batch full hits).
    constexpr std::size_t memo_limit = 16;
    dse::session bounded(flow::on(g2).with_library(lib),
                         {.memo_limit = memo_limit, .chunk = 30});
    std::size_t max_full = 0;
    std::vector<flow_report> bounded_reports(grid2.size());
    dse::sink bounded_sink;
    bounded_sink.on_result = [&](std::size_t i, const flow_report& r) {
        bounded_reports[i] = r;
        max_full = std::max(max_full, bounded.cache()->report_full_size());
    };
    dse::explore_summary bounded_sum;
    const double ms_bounded = run_ms(
        [&] { bounded_sum = bounded.explore(dse::list(grid2), bounded_sink, 1); });
    bool bounded_ok = max_full <= memo_limit &&
                      bounded.cache()->report_full_size() <= memo_limit &&
                      bounded_sum.metric_served > 0;
    for (std::size_t i = 0; i < grid2.size(); ++i)
        bounded_ok = bounded_ok && metric_identical(bounded_reports[i], ref2[i]);

    dse::session eager_session(flow::on(g2).with_library(lib));
    dse::explore_summary eager_sum;
    const double ms_eager = run_ms(
        [&] { eager_sum = eager_session.explore(dse::cross(lat2, caps20), {}, 1); });
    dse::session refine_session(flow::on(g2).with_library(lib));
    dse::explore_summary refine_sum;
    const double ms_refine = run_ms(
        [&] { refine_sum = refine_session.explore(dse::refine(lat2, caps20), {}, 1); });
    const bool refine_ok = refine_sum.front == eager_sum.front &&
                           refine_sum.evaluated <= eager_sum.evaluated;

    const explore_cache::counters ccold = cold.cache()->stats();
    ascii_table t3({"session run", "wall (ms)", "points", "points/sec"});
    const auto pps = [](std::size_t n, double ms) {
        return ms > 0.0 ? strf("%.0f", 1000.0 * static_cast<double>(n) / ms) : "-";
    };
    t3.add_row({"cold (unbounded)", strf("%.1f", ms_cold),
                std::to_string(cold_sum.evaluated), pps(cold_sum.evaluated, ms_cold)});
    t3.add_row({"warm (from cache file)", strf("%.1f", ms_warm),
                std::to_string(warm_sum.evaluated), pps(warm_sum.evaluated, ms_warm)});
    t3.add_row({strf("bounded (memo %zu)", memo_limit), strf("%.1f", ms_bounded),
                std::to_string(bounded_sum.evaluated),
                pps(bounded_sum.evaluated, ms_bounded)});
    t3.add_row({"eager grid", strf("%.1f", ms_eager),
                std::to_string(eager_sum.evaluated), pps(eager_sum.evaluated, ms_eager)});
    t3.add_row({"refine", strf("%.1f", ms_refine), std::to_string(refine_sum.evaluated),
                pps(refine_sum.evaluated, ms_refine)});
    t3.print(std::cout);
    std::cout << strf("warm speedup vs cold: %.1fx; refine evaluated %zu of %zu "
                      "lattice points\n\n",
                      ms_warm > 0.0 ? ms_cold / ms_warm : 0.0, refine_sum.evaluated,
                      refine_sum.space_size);

    // ---- surrogate-guided exploration on a 10^4-point (T, Pmax) plane ----
    //
    // The headline guided workload: 20 latency bounds x 500 caps over
    // hal.  Hard gates: the guided front must EQUAL the eager front
    // point-for-point (the surrogate steers, never decides), the
    // counters must partition the space, and at most 25% of the plane
    // may be evaluated exactly.
    std::cout << "=== surrogate-guided exploration on a 10^4-point plane ===\n";
    std::vector<int> plane_lat;
    for (int T = 17; T < 37; ++T) plane_lat.push_back(T);
    std::vector<double> plane_caps;
    for (int i = 0; i < 500; ++i)
        plane_caps.push_back(2.0 + 18.0 * static_cast<double>(i) / 499.0);
    const dse::space plane = dse::cross(plane_lat, plane_caps);

    dse::session plane_eager(flow::on(g2).with_library(lib));
    dse::explore_summary plane_eager_sum;
    const double ms_plane_eager =
        run_ms([&] { plane_eager_sum = plane_eager.explore(plane, {}, 0); });

    dse::session plane_guided(flow::on(g2).with_library(lib));
    dse::guided_summary plane_guided_sum;
    const double ms_plane_guided = run_ms(
        [&] { plane_guided_sum = plane_guided.explore_guided(plane, {}, {}, 0); });

    const double guided_fraction =
        static_cast<double>(plane_guided_sum.computed + plane_guided_sum.memo_served) /
        static_cast<double>(plane_guided_sum.space_size);
    const bool guided_identical = plane_guided_sum.front == plane_eager_sum.front;
    const bool guided_partition =
        plane_guided_sum.computed + plane_guided_sum.memo_served +
            plane_guided_sum.skipped ==
        plane_guided_sum.space_size;
    const bool guided_frugal = guided_fraction <= 0.25;
    const bool guided_faster = ms_plane_guided < ms_plane_eager;

    ascii_table t4({"plane walk", "wall (ms)", "computed", "skipped", "fraction"});
    t4.add_row({"eager", strf("%.1f", ms_plane_eager),
                std::to_string(plane_eager_sum.evaluated), "0", "1.000"});
    t4.add_row({"guided", strf("%.1f", ms_plane_guided),
                std::to_string(plane_guided_sum.computed),
                std::to_string(plane_guided_sum.skipped),
                strf("%.3f", guided_fraction)});
    t4.print(std::cout);
    std::cout << strf("guided: %zu rounds, %zu trained rows, %zu verified, front %zu "
                      "points; speedup vs eager %.1fx\n\n",
                      plane_guided_sum.rounds, plane_guided_sum.trained_rows,
                      plane_guided_sum.verified, plane_guided_sum.front.size(),
                      ms_plane_guided > 0.0 ? ms_plane_eager / ms_plane_guided : 0.0);

    // ---- the delivery convoy: a cold eager plane with a formatting sink ----
    //
    // Deliveries are serialised, so workers that finish while the sink
    // runs must not queue on it.  The plane in a seeded order (as the
    // end-to-end benchmark's sweep-plane walks it), lifetime stage on, on
    // 1 and 4 threads; best of three cold explores per thread count.
    // The projections must match; the times are reported, not gated.
    std::cout << "=== delivery convoy: cold eager plane with a formatting sink ===\n";
    std::vector<synthesis_constraints> convoy_points = plane.materialize();
    rng shuffle(1);
    for (std::size_t i = convoy_points.size() - 1; i > 0; --i)
        std::swap(convoy_points[i], convoy_points[shuffle.next() % (i + 1)]);
    const dse::space convoy_plane = dse::list(convoy_points);
    struct convoy_row {
        int threads;
        double wall_ms = 0.0, cpu_ms = 0.0, sys_ms = 0.0;
        std::vector<std::string> lines;
    };
    std::vector<convoy_row> convoy = {{1, 0.0, 0.0, 0.0, {}}, {4, 0.0, 0.0, 0.0, {}}};
    for (convoy_row& row : convoy) {
        for (int rep = 0; rep < 3; ++rep) {
            dse::session cold_plane(flow::on(g2).with_library(lib).estimate_lifetime());
            std::vector<std::string> lines(convoy_points.size());
            dse::sink sk;
            sk.on_result = [&](std::size_t i, const flow_report& r) { lines[i] = point_line(r); };
            const auto [user0, sys0] = cpu_seconds();
            const double ms =
                run_ms([&] { cold_plane.explore(convoy_plane, sk, row.threads); });
            const auto [user1, sys1] = cpu_seconds();
            if (rep == 0 || ms < row.wall_ms) {
                row.wall_ms = ms;
                row.cpu_ms = 1e3 * (user1 - user0 + sys1 - sys0);
                row.sys_ms = 1e3 * (sys1 - sys0);
            }
            row.lines = std::move(lines);
        }
    }
    const bool convoy_identical = convoy[0].lines == convoy[1].lines;
    ascii_table t5({"threads", "wall (ms)", "cpu (ms)", "sys (ms)", "identical"});
    for (const convoy_row& row : convoy)
        t5.add_row({std::to_string(row.threads), strf("%.1f", row.wall_ms),
                    strf("%.1f", row.cpu_ms), strf("%.1f", row.sys_ms),
                    row.threads == 1 ? "ref" : convoy_identical ? "yes" : "NO"});
    t5.print(std::cout);
    std::cout << '\n';

    // ------------------------------------------------------------ gates
    //
    // The scaling gate is hard only where a ratio means something: at
    // least 4 hardware threads, and enough uncached work that each of
    // the 4 workers gets scaling_floor_ms_per_worker of it.
    const bool report_hit = c2.report_hits > 0;
    const double work_ms_per_worker = elliptic_uncached_ms / 4.0;
    const bool enough_work = work_ms_per_worker >= scaling_floor_ms_per_worker;
    const bool hard_scaling = cores >= 4 && enough_work;
    const bool scaling_ok = !hard_scaling || speedup_at_4 >= 2.0;

    std::cout << "reports identical across thread counts and caching modes: "
              << (all_identical && grid_identical ? "YES" : "NO") << '\n';
    std::cout << "cache hits taken on every benchmark: " << (all_hit ? "YES" : "NO")
              << '\n';
    std::cout << "report-memo hits taken on the 2-D grid: "
              << (report_hit ? "YES" : "NO") << '\n';
    std::cout << "incremental Pareto front equals the post-hoc front: "
              << (pareto_matches ? "YES" : "NO") << '\n';
    std::cout << "cold session explore is byte-identical to sequential runs: "
              << (session_identical ? "YES" : "NO") << '\n';
    std::cout << "replayed front deltas reconstruct the final front: "
              << (deltas_ok ? "YES" : "NO") << '\n';
    std::cout << "warm-started session matches the reference at the metric level: "
              << (warm_matches ? "YES" : "NO") << '\n';
    std::cout << "warm-started session beats the cold wall time: "
              << (warm_faster ? "YES" : "NO") << '\n';
    std::cout << "bounded memo respects its capacity and serves metric fallbacks: "
              << (bounded_ok ? "YES" : "NO") << '\n';
    std::cout << "refine lands on the eager grid's front: "
              << (refine_ok ? "YES" : "NO") << '\n';
    std::cout << "guided front equals the eager front on the 10^4-point plane: "
              << (guided_identical ? "YES" : "NO") << '\n';
    std::cout << "guided counters partition the plane: "
              << (guided_partition ? "YES" : "NO") << '\n';
    std::cout << strf("guided evaluated fraction: %.3f (gate <= 0.25)\n",
                      guided_fraction);
    std::cout << "guided walk beats the eager walk on wall time: "
              << (guided_faster ? "YES" : "NO") << '\n';
    std::cout << "convoy plane projections identical on 1 and 4 threads: "
              << (convoy_identical ? "YES" : "NO") << '\n';
    const std::string gate =
        hard_scaling ? std::string(">= 2x, hard")
        : cores < 4  ? std::string("soft: fewer than 4 cores")
                     : strf("soft: %.1f ms of work per worker, under the %.0f ms floor",
                            work_ms_per_worker, scaling_floor_ms_per_worker);
    std::cout << strf("elliptic speedup at 4 threads: %.2fx (gate %s)\n", speedup_at_4,
                      gate.c_str());

    const bool ok = all_identical && grid_identical && all_hit && report_hit &&
                    pareto_matches && scaling_ok &&
                    session_identical && deltas_ok && warm_matches && warm_faster &&
                    bounded_ok && refine_ok && guided_identical && guided_partition &&
                    guided_frugal && guided_faster && convoy_identical;

    // Machine-readable trajectory: one flat JSON object per run, stable
    // keys, so successive PRs can be diffed/plotted without parsing the
    // tables above.
    {
        std::ofstream json("BENCH_batch_sweep.json");
        const auto rate = [](long hits, long misses) {
            const long total = hits + misses;
            return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                             : 0.0;
        };
        json << "{\n";
        json << strf("  \"hardware_threads\": %u,\n", cores);
        json << strf("  \"grid_points\": %zu,\n", grid2.size());
        json << strf("  \"grid_distinct\": %zu,\n", distinct);
        json << strf("  \"cold_wall_ms\": %.3f,\n", ms_cold);
        json << strf("  \"cold_points_per_sec\": %.1f,\n",
                     ms_cold > 0.0 ? 1000.0 * static_cast<double>(grid2.size()) / ms_cold
                                   : 0.0);
        json << strf("  \"warm_wall_ms\": %.3f,\n", ms_warm);
        json << strf("  \"warm_points_per_sec\": %.1f,\n",
                     ms_warm > 0.0 ? 1000.0 * static_cast<double>(grid2.size()) / ms_warm
                                   : 0.0);
        json << strf("  \"warm_speedup_vs_cold\": %.2f,\n",
                     ms_warm > 0.0 ? ms_cold / ms_warm : 0.0);
        json << strf("  \"warm_metric_served\": %zu,\n", warm_sum.metric_served);
        json << strf("  \"invariant_hit_rate\": %.4f,\n", rate(ccold.hits, ccold.misses));
        json << strf("  \"report_hit_rate\": %.4f,\n",
                     rate(ccold.report_hits, ccold.report_misses));
        json << strf("  \"cached_wall_ms\": %.3f,\n", ms2_cached);
        json << strf("  \"uncached_wall_ms\": %.3f,\n", ms2_off);
        json << strf("  \"refine_evaluated\": %zu,\n", refine_sum.evaluated);
        json << strf("  \"refine_lattice\": %zu,\n", refine_sum.space_size);
        json << strf("  \"refine_wall_ms\": %.3f,\n", ms_refine);
        json << strf("  \"eager_wall_ms\": %.3f,\n", ms_eager);
        json << strf("  \"speedup_at_4_threads\": %.2f,\n", speedup_at_4);
        json << strf("  \"scaling_work_ms_per_worker\": %.3f,\n", work_ms_per_worker);
        json << strf("  \"scaling_gate_hard\": %s,\n", hard_scaling ? "true" : "false");
        json << strf("  \"guided_space\": %zu,\n", plane_guided_sum.space_size);
        json << strf("  \"guided_computed\": %zu,\n", plane_guided_sum.computed);
        json << strf("  \"guided_memo_served\": %zu,\n", plane_guided_sum.memo_served);
        json << strf("  \"guided_skipped\": %zu,\n", plane_guided_sum.skipped);
        json << strf("  \"guided_verified\": %zu,\n", plane_guided_sum.verified);
        json << strf("  \"guided_evaluated_fraction\": %.4f,\n", guided_fraction);
        json << strf("  \"guided_wall_ms\": %.3f,\n", ms_plane_guided);
        json << strf("  \"guided_eager_wall_ms\": %.3f,\n", ms_plane_eager);
        for (const convoy_row& row : convoy) {
            json << strf("  \"convoy_wall_ms_%dt\": %.3f,\n", row.threads, row.wall_ms);
            json << strf("  \"convoy_cpu_ms_%dt\": %.3f,\n", row.threads, row.cpu_ms);
            json << strf("  \"convoy_sys_ms_%dt\": %.3f,\n", row.threads, row.sys_ms);
        }
        json << strf("  \"convoy_identical\": %s,\n", convoy_identical ? "true" : "false");
        json << strf("  \"gates_passed\": %s\n", ok ? "true" : "false");
        json << "}\n";
        std::cout << "wrote BENCH_batch_sweep.json\n";
    }

    return ok ? 0 : 1;
}
