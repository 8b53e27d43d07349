// Acceptance gates of the distributed exploration service over the
// 120-point duplicate-heavy 2-D grid (hal, T in {17,19,21} x 20 caps,
// every point twice — the same grid bench_batch_sweep uses):
//
//   * sharding — explore_sharded at 1, 2 and 8 shards (in-process
//     sessions) and at 4 forked subprocess workers produces a final
//     Pareto front IDENTICAL to single-process dse::session::explore
//     (hard gate, point-for-point equality);
//   * mergeable caches — the 8 per-shard cache files merged with
//     explore_cache::merge_files load into a fresh session that replays
//     the whole grid at the metric level (metric_served == all points),
//     exactly like a session warm-started from the single save()d
//     cache, and lands on the same front (hard gate);
//   * serving — a live server on a unix socket answers 4 concurrent
//     clients submitting the same sweep; every client's front equals
//     the single-process front, all four share ONE pooled session, and
//     the server shuts down cleanly (hard gate);
//   * recovery — with a deterministic fault injected (a forked worker
//     SIGKILLed mid-sweep; a shard cache corrupted during save), the
//     supervised sweep and the --skip-bad merge still land on the exact
//     single-process front (hard gate: fault tolerance must not cost
//     identity);
//   * timings for every mode are reported and written to
//     BENCH_serve.json so the trajectory is comparable across PRs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "cdfg/benchmarks.h"
#include "dse/session.h"
#include "flow/explore_cache.h"
#include "flow/flow.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/shard.h"
#include "support/faultpoints.h"
#include "support/strings.h"
#include "support/table.h"

namespace {

double run_ms(const std::function<void()>& fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int main()
{
    using namespace phls;
    const module_library lib = table1_library();
    const graph g = make_hal();
    const flow proto = flow::on(g).with_library(lib).latency(17);

    // The duplicate-heavy 2-D grid: 3 latencies x 20 caps, twice each.
    std::vector<synthesis_constraints> grid;
    for (int T : {17, 19, 21})
        for (double cap : proto.power_grid(20)) grid.push_back({T, cap});
    const std::size_t distinct = grid.size();
    const std::vector<synthesis_constraints> once = grid; // self-insert is UB
    grid.insert(grid.end(), once.begin(), once.end());

    std::cout << "=== distributed exploration service: shard / merge / serve gates ===\n";
    std::cout << grid.size() << " points (" << distinct << " distinct), hal graph\n\n";

    // ------------------------------------------------ single-process reference
    std::vector<front_point> want;
    dse::explore_summary ref_sum;
    const std::string single_cache = "BENCH_serve_single.phlscache";
    const double ms_single = run_ms([&] {
        dse::session session(proto);
        ref_sum = session.explore(dse::list(grid), {}, 1);
        session.save(single_cache);
    });
    want = ref_sum.front;
    std::cout << strf("single-process reference: %.1f ms, front of %zu points\n\n",
                      ms_single, want.size());

    // ---------------------------------------------------------------- sharding
    const std::string cache_dir = "BENCH_serve_caches";
    ::mkdir(cache_dir.c_str(), 0755);

    ascii_table shard_table({"mode", "shards", "wall (ms)", "evaluated", "front ok"});
    bool shards_ok = true;
    std::vector<std::string> shard8_files;
    double ms_shard8 = 0.0;
    for (const int shards : {1, 2, 8}) {
        serve::shard_options opts;
        opts.shards = shards;
        if (shards == 8) opts.cache_dir = cache_dir; // keep the 8 shard files
        serve::shard_summary sum;
        const double ms =
            run_ms([&] { sum = serve::explore_sharded(proto, dse::list(grid), opts); });
        const bool ok = sum.front == want && sum.evaluated == grid.size();
        shards_ok = shards_ok && ok;
        if (shards == 8) {
            shard8_files = sum.cache_files;
            ms_shard8 = ms;
        }
        shard_table.add_row({"threads", strf("%d", shards), strf("%.1f", ms),
                             strf("%zu", sum.evaluated), ok ? "YES" : "NO"});
    }

    serve::shard_options proc_opts;
    proc_opts.shards = 4;
    proc_opts.processes = true;
    serve::shard_summary proc_sum;
    const double ms_procs = run_ms(
        [&] { proc_sum = serve::explore_sharded(proto, dse::list(grid), proc_opts); });
    const bool procs_ok =
        proc_sum.front == want && proc_sum.evaluated == grid.size();
    shard_table.add_row({"processes", "4", strf("%.1f", ms_procs),
                         strf("%zu", proc_sum.evaluated), procs_ok ? "YES" : "NO"});
    std::cout << shard_table.to_string() << '\n';

    // --------------------------------------------------------- mergeable caches
    // Reference warm behaviour: the single save()d cache replays the
    // whole grid at the metric level.
    dse::explore_summary single_warm;
    const double ms_single_warm = run_ms([&] {
        dse::session warm(proto);
        warm.load(single_cache);
        single_warm = warm.explore(dse::list(grid), {}, 1);
    });

    // The 8 per-shard files merged into one cache file must behave the
    // same: every point served from metrics, same front.
    const std::string merged_path = cache_dir + std::string("/merged.phlscache");
    cache_merge_stats merge_stats;
    dse::explore_summary merged_warm;
    double ms_merge = 0.0;
    double ms_merged_replay = 0.0;
    bool merge_ok = false;
    if (shard8_files.size() == 8) {
        ms_merge =
            run_ms([&] { merge_stats = explore_cache::merge_files(merged_path, shard8_files); });
        ms_merged_replay = run_ms([&] {
            dse::session warm(proto);
            warm.load(merged_path);
            merged_warm = warm.explore(dse::list(grid), {}, 1);
        });
        merge_ok = merged_warm.metric_served == grid.size() &&
                   merged_warm.metric_served == single_warm.metric_served &&
                   merged_warm.front == want;
    }
    std::cout << strf("single warm cache replay:  %.1f ms, %zu/%zu metric-served\n",
                      ms_single_warm, single_warm.metric_served, grid.size());
    std::cout << strf("8 shard caches merge:      %.1f ms (%zu metric records)\n",
                      ms_merge, merge_stats.metric_total);
    std::cout << strf("merged cache replay:       %.1f ms, %zu/%zu metric-served\n",
                      ms_merged_replay, merged_warm.metric_served, grid.size());
    std::cout << "merged == single warm cache: " << (merge_ok ? "YES" : "NO") << "\n\n";

    // ------------------------------------------------------------------ serving
    serve::server_options srv_opts;
    srv_opts.socket_path = "BENCH_serve.sock";
    std::remove(srv_opts.socket_path.c_str());
    bool serve_ok = true;
    std::size_t pooled_sessions = 0;
    double ms_serve = 0.0;
    {
        serve::server srv(srv_opts);
        srv.start();
        const serve::job_request job = serve::make_job(proto, dse::list(grid));
        constexpr int clients = 4;
        std::vector<dse::explore_summary> done(clients);
        std::vector<bool> failed(clients, false);
        ms_serve = run_ms([&] {
            std::vector<std::thread> threads;
            for (int i = 0; i < clients; ++i) {
                threads.emplace_back([&, i] {
                    try {
                        serve::client c(
                            [&srv] { return serve::connect_unix(srv.socket_path()); });
                        done[static_cast<std::size_t>(i)] = c.explore(job);
                        c.bye();
                    } catch (const std::exception& e) {
                        std::cerr << "client " << i << " failed: " << e.what() << '\n';
                        failed[static_cast<std::size_t>(i)] = true;
                    }
                });
            }
            for (std::thread& t : threads) t.join();
        });
        for (int i = 0; i < clients; ++i) {
            const std::size_t idx = static_cast<std::size_t>(i);
            serve_ok = serve_ok && !failed[idx] && done[idx].front == want &&
                       done[idx].evaluated == grid.size();
        }
        pooled_sessions = srv.stats().sessions;
        serve_ok = serve_ok && pooled_sessions == 1 && srv.stats().jobs == 4;
        srv.stop();
    }
    std::remove(srv_opts.socket_path.c_str());
    std::cout << strf("4 concurrent served sweeps: %.1f ms total, %zu pooled session(s)\n",
                      ms_serve, pooled_sessions);
    std::cout << "every served front == single-process front: "
              << (serve_ok ? "YES" : "NO") << "\n\n";

    // ---------------------------------------------------------------- recovery
    // Gate 1: a forked worker SIGKILLed mid-sweep is respawned and the
    // recovered front is still point-for-point the single-process one.
    serve::shard_options kill_opts;
    kill_opts.shards = 4;
    kill_opts.processes = true;
    kill_opts.retry_backoff_ms = 1;
    serve::shard_summary kill_sum;
    fault_arm("shard.worker.kill:5");
    const double ms_kill = run_ms(
        [&] { kill_sum = serve::explore_sharded(proto, dse::list(grid), kill_opts); });
    const bool kill_injected = fault_fired("shard.worker.kill");
    fault_clear();
    const bool kill_ok = kill_injected && kill_sum.front == want &&
                         kill_sum.evaluated == grid.size();
    std::cout << strf("worker-kill recovery:      %.1f ms, %zu respawn(s), "
                      "front %s\n",
                      ms_kill, kill_sum.worker_retries,
                      kill_ok ? "identical" : "BROKEN");

    // Gate 2: one shard cache corrupted during save; the --skip-bad
    // merge drops it, and the warm replay of the survivors recomputes
    // the hole yet lands on the identical front.
    const std::string chaos_dir = "BENCH_serve_chaos";
    ::mkdir(chaos_dir.c_str(), 0755);
    serve::shard_options chaos_opts;
    chaos_opts.shards = 8;
    chaos_opts.cache_dir = chaos_dir;
    serve::shard_summary chaos_sum;
    fault_arm("cache.save.corrupt:1");
    chaos_sum = serve::explore_sharded(proto, dse::list(grid), chaos_opts);
    const bool corrupt_injected = fault_fired("cache.save.corrupt");
    fault_clear();
    const std::string chaos_merged = chaos_dir + std::string("/merged.phlscache");
    cache_merge_stats chaos_stats;
    dse::explore_summary chaos_warm;
    const double ms_chaos = run_ms([&] {
        chaos_stats =
            explore_cache::merge_files(chaos_merged, chaos_sum.cache_files, true);
        dse::session warm(proto);
        warm.load(chaos_merged);
        chaos_warm = warm.explore(dse::list(grid), {}, 1);
    });
    // No hole-size assertion: on this duplicate-heavy grid the corrupted
    // shard's keys also live in its duplicate shard's cache, so the
    // replay may still be fully metric-served.  The gate is that the
    // damage is detected, skipped, and costs no identity.
    const bool chaos_ok = corrupt_injected && chaos_stats.skipped_inputs == 1 &&
                          chaos_warm.evaluated == grid.size() &&
                          chaos_warm.front == want;
    std::cout << strf("corrupt-cache recovery:    %.1f ms, %zu/8 caches skipped, "
                      "%zu/%zu metric-served, front %s\n\n",
                      ms_chaos, chaos_stats.skipped_inputs,
                      chaos_warm.metric_served, grid.size(),
                      chaos_ok ? "identical" : "BROKEN");

    // ------------------------------------------------------------------- gates
    std::cout << "sharded fronts (1/2/8 shards) identical: "
              << (shards_ok ? "YES" : "NO") << '\n';
    std::cout << "subprocess-worker front identical:       "
              << (procs_ok ? "YES" : "NO") << '\n';
    std::cout << "merged shard caches == single warm cache: "
              << (merge_ok ? "YES" : "NO") << '\n';
    std::cout << "served sweeps identical, one shared session: "
              << (serve_ok ? "YES" : "NO") << '\n';
    std::cout << "killed-worker recovery front identical:  "
              << (kill_ok ? "YES" : "NO") << '\n';
    std::cout << "corrupt-cache skip-bad recovery identical: "
              << (chaos_ok ? "YES" : "NO") << '\n';
    const bool ok =
        shards_ok && procs_ok && merge_ok && serve_ok && kill_ok && chaos_ok;

    {
        std::ofstream json("BENCH_serve.json");
        json << "{\n";
        json << strf("  \"grid_points\": %zu,\n", grid.size());
        json << strf("  \"grid_distinct\": %zu,\n", distinct);
        json << strf("  \"single_wall_ms\": %.3f,\n", ms_single);
        json << strf("  \"shard8_wall_ms\": %.3f,\n", ms_shard8);
        json << strf("  \"procs4_wall_ms\": %.3f,\n", ms_procs);
        json << strf("  \"single_warm_wall_ms\": %.3f,\n", ms_single_warm);
        json << strf("  \"merge_wall_ms\": %.3f,\n", ms_merge);
        json << strf("  \"merged_replay_wall_ms\": %.3f,\n", ms_merged_replay);
        json << strf("  \"merged_metric_served\": %zu,\n", merged_warm.metric_served);
        json << strf("  \"serve_4_clients_wall_ms\": %.3f,\n", ms_serve);
        json << strf("  \"pooled_sessions\": %zu,\n", pooled_sessions);
        json << strf("  \"kill_recovery_wall_ms\": %.3f,\n", ms_kill);
        json << strf("  \"kill_recovery_respawns\": %zu,\n", kill_sum.worker_retries);
        json << strf("  \"chaos_merge_replay_wall_ms\": %.3f,\n", ms_chaos);
        json << strf("  \"chaos_caches_skipped\": %zu,\n", chaos_stats.skipped_inputs);
        json << strf("  \"gates_passed\": %s\n", ok ? "true" : "false");
        json << "}\n";
        std::cout << "wrote BENCH_serve.json\n";
    }

    // Scratch files are inputs to nothing else: clean them up.
    for (const std::string& path : shard8_files) std::remove(path.c_str());
    std::remove(merged_path.c_str());
    std::remove(single_cache.c_str());
    ::rmdir(cache_dir.c_str());
    for (const std::string& path : chaos_sum.cache_files) std::remove(path.c_str());
    std::remove(chaos_merged.c_str());
    ::rmdir(chaos_dir.c_str());

    return ok ? 0 : 1;
}
