// Tests for the explore_cache (shared per-(graph, lib) sub-results), the
// synth layer's problem_tables under it, and the session's streaming
// report channel: every point delivered once, deliveries serialised,
// sink exceptions rethrown after the pool drains.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <set>
#include <thread>

#include "battery/battery.h"
#include "battery/lifetime.h"
#include "cdfg/benchmarks.h"
#include "cdfg/textio.h"
#include "flow/explore_cache.h"
#include "flow/flow.h"
#include "sched/schedule.h"
#include "support/errors.h"
#include "support/strings.h"
#include "synth/problem_tables.h"
#include "synth/prospect.h"
#include "synth/two_step.h"
#include "sweep_util.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

std::vector<synthesis_constraints> hal_grid(int points)
{
    const flow f = flow::on(make_hal()).with_library(lib()).latency(17);
    std::vector<synthesis_constraints> grid;
    for (double cap : f.power_grid(points)) grid.push_back({17, cap});
    return grid;
}

// ------------------------------------------------------------------ cache

TEST(explore_cache, cached_batches_are_byte_identical_to_uncached_across_threads)
{
    const graph g = make_cosine();
    const flow base = flow::on(g).with_library(lib()).latency(15);
    std::vector<synthesis_constraints> grid;
    for (double cap : base.power_grid(16)) grid.push_back({15, cap});

    // The uncached sequential run is the pre-cache engine behaviour.
    const std::vector<flow_report> reference = run_each(base, grid);
    ASSERT_EQ(reference.size(), grid.size());

    for (int threads : {1, 2, 8}) {
        const std::vector<flow_report> reports = explore_all(base, grid, threads);
        ASSERT_EQ(reports.size(), reference.size()) << threads << " threads";
        for (std::size_t i = 0; i < reports.size(); ++i)
            EXPECT_EQ(reports[i].to_string(), reference[i].to_string())
                << threads << " threads, point " << i;
    }
}

TEST(explore_cache, hits_are_taken_on_a_16_point_sweep)
{
    dse::session session(flow::on(make_hal()).with_library(lib()).latency(17));
    const dse::explore_summary sum = session.explore(dse::list(hal_grid(16)), {}, 2);
    ASSERT_EQ(sum.evaluated, 16u);

    const explore_cache::counters c = session.cache()->stats();
    EXPECT_GT(c.hits, 0);
    // Every feasible point takes several hits (prospect tables from both
    // policies, reachability), so a 16-point sweep lands well past one
    // hit per point.
    EXPECT_GE(c.hits, 16);
    // Far fewer distinct computations than lookups: the sweep shares them.
    EXPECT_LT(c.misses, c.hits);
}

TEST(explore_cache, prospect_lookup_matches_direct_computation)
{
    const graph g = make_cosine();
    const explore_cache cache(g, lib());
    for (double cap : {2.0, 2.5, 2.8, 7.0, 8.1, 9.0, 40.0, unbounded_power}) {
        for (prospect_policy policy :
             {prospect_policy::fastest_fit, prospect_policy::cheapest_fit}) {
            const prospect_result direct = make_prospect(g, lib(), policy, cap);
            const prospect_result via_cache = cache.prospect(policy, cap);
            ASSERT_EQ(direct.ok, via_cache.ok) << "cap " << cap;
            EXPECT_EQ(direct.assignment, via_cache.assignment) << "cap " << cap;
            EXPECT_EQ(direct.reason, via_cache.reason) << "cap " << cap;
        }
    }
    EXPECT_GT(cache.stats().hits, 0); // buckets repeat across those caps
}

TEST(explore_cache, stale_cache_is_reported_not_silently_recomputed)
{
    const auto cache = std::make_shared<explore_cache>(make_hal(), lib());
    // Same library, different graph: every run must refuse loudly.
    const flow f = flow::on(make_cosine()).with_library(lib()).latency(15).reuse(cache);
    const flow_report single = f.run();
    EXPECT_EQ(single.st.code, status_code::invalid_argument);
    const sched_outcome sched = f.run_schedule();
    EXPECT_EQ(sched.st.code, status_code::invalid_argument);
}

TEST(explore_cache, switching_the_library_after_reuse_fails_every_run)
{
    // reuse() and with_library() decide whether the cache matches, so a
    // library swapped in after reuse() is refused on every run, and the
    // cache's own library swapped back in is served again.
    const graph g = make_hal();
    const auto cache = std::make_shared<explore_cache>(g, lib());
    const module_library other = parse_library_string(
        write_library_string(lib()) + "module spare_alu + - > area 97 cycles 1 power 2.5\n");
    flow f = flow::on(g).with_library(lib()).latency(17).power_cap(9.0).reuse(cache);
    ASSERT_TRUE(f.run().st.ok());

    f.with_library(other);
    for (int run = 0; run < 3; ++run) {
        const flow_report r = f.run();
        EXPECT_EQ(r.st.code, status_code::invalid_argument) << run;
        EXPECT_EQ(r.st.message, "explore_cache was built for a different graph or library")
            << run;
        EXPECT_EQ(f.run_schedule().st.code, status_code::invalid_argument) << run;
        EXPECT_THROW(f.power_grid(4), error) << run;
    }

    f.with_library(lib());
    EXPECT_TRUE(f.run().st.ok());
    EXPECT_TRUE(f.run_schedule().st.ok());
    // Installing the cache after the foreign library is refused as well.
    EXPECT_EQ(flow::on(g).with_library(other).latency(17).reuse(cache).run().st.code,
              status_code::invalid_argument);
}

TEST(explore_cache, rejects_malformed_problems_at_construction)
{
    const module_library empty = parse_library_string("library empty\n");
    EXPECT_THROW(explore_cache(make_hal(), empty), error);
}

TEST(explore_cache, fastest_lookup_matches_direct_computation)
{
    const graph g = make_hal();
    const explore_cache cache(g, lib());
    for (double cap : {2.0, 3.0, 8.1, 20.0, unbounded_power})
        EXPECT_EQ(cache.fastest(cap), fastest_assignment(g, lib(), cap)) << cap;
}

// Many threads race misses of ONE key: exactly one thread must count the
// miss (the one whose insert wins) and every other lookup must count a
// hit, so hits + misses equals the number of lookups on any machine.
// Before the re-check-under-the-lock fix, every racing thread counted a
// miss and the totals drifted on multicore.
TEST(explore_cache, counters_are_exact_under_concurrent_misses_of_one_key)
{
    const graph g = make_hal();
    const explore_cache cache(g, lib());
    constexpr int threads = 8;
    constexpr int lookups_per_thread = 4;

    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&] {
            while (!go.load()) std::this_thread::yield();
            for (int i = 0; i < lookups_per_thread; ++i) (void)cache.fastest(9.0);
        });
    go.store(true);
    for (std::thread& t : pool) t.join();

    const explore_cache::counters c = cache.stats();
    // One counted miss for the key + the eager reachability build.
    EXPECT_EQ(c.misses, 2);
    EXPECT_EQ(c.hits, threads * lookups_per_thread - 1);
}

TEST(explore_cache, two_step_shares_step_one_windows_across_a_cap_sweep)
{
    // two_step's first step relaxes the cap away, so every point of a
    // power sweep solves the same scheduling problem.  The cache shares
    // its invariants and every point recomputes its windows; the sweep
    // must stay byte-identical to the uncached one at any thread count.
    const graph g = make_hal();
    const std::vector<synthesis_constraints> grid = hal_grid(8);
    const flow two_step = flow::on(g).with_library(lib()).latency(17).synthesizer("two_step");
    const std::vector<flow_report> reference = run_each(two_step, grid);
    for (int threads : {1, 8}) {
        const std::vector<flow_report> reports = explore_all(two_step, grid, threads);
        ASSERT_EQ(reports.size(), reference.size()) << threads << " threads";
        for (std::size_t i = 0; i < reports.size(); ++i)
            EXPECT_EQ(reports[i].to_string(), reference[i].to_string())
                << threads << " threads, point " << i;
    }

    // The free function accepts the cache directly too.
    const auto cache = std::make_shared<explore_cache>(g, lib());
    const two_step_result with = two_step_synthesize(g, lib(), {17, 9.0}, {}, cache.get());
    const two_step_result without = two_step_synthesize(g, lib(), {17, 9.0});
    ASSERT_EQ(with.feasible, without.feasible);
    EXPECT_EQ(with.dp.sched.starts(), without.dp.sched.starts());
    EXPECT_DOUBLE_EQ(with.peak_after, without.peak_after);
}

// The synth layer used without flow/: synthesize() and
// two_step_synthesize() return the same designs with no tables, with
// bare problem_tables and with an explore_cache.
TEST(problem_tables, synthesis_is_identical_without_tables_on_bare_tables_and_on_a_cache)
{
    const auto render = [](const graph& g, bool feasible, const std::string& reason,
                           const datapath& dp, const std::string& counters) {
        return strf("feasible %d: %s\n%s\n", feasible ? 1 : 0, reason.c_str(),
                    counters.c_str()) +
               (feasible ? dp.report(g, lib()) : std::string());
    };
    const std::vector<std::pair<graph, int>> problems = {{make_hal(), 17},
                                                         {make_cosine(), 15}};
    for (const auto& [g, T] : problems) {
        const problem_tables bare(g, lib());
        const explore_cache cache(g, lib());
        for (double cap : {2.0, 4.5, 7.0, 8.1, 9.0, 12.0, unbounded_power}) {
            const synthesis_constraints c{T, cap};
            std::vector<std::string> greedy, two_step;
            std::vector<datapath> designs;
            for (const problem_tables* tables :
                 {static_cast<const problem_tables*>(nullptr), &bare,
                  static_cast<const problem_tables*>(&cache)}) {
                const synthesis_result s = synthesize(g, lib(), c, {}, tables);
                greedy.push_back(render(
                    g, s.feasible, s.reason, s.dp,
                    strf("merges %d pair %d join %d rejected %d recomputes %d locked %d",
                         s.stats.merges, s.stats.pair_merges, s.stats.join_merges,
                         s.stats.rejected, s.stats.window_recomputes,
                         s.stats.locked ? 1 : 0)));
                designs.push_back(s.dp);
                const two_step_result t = two_step_synthesize(g, lib(), c, {}, tables);
                two_step.push_back(
                    render(g, t.feasible, t.reason, t.dp,
                           strf("before %.17g after %.17g meets %d moves %d",
                                t.peak_before, t.peak_after, t.meets_power ? 1 : 0,
                                t.moves)));
                designs.push_back(t.dp);
            }
            for (std::size_t i = 1; i < greedy.size(); ++i) {
                EXPECT_EQ(greedy[i], greedy[0]) << g.name() << " cap " << cap << " setup " << i;
                EXPECT_EQ(two_step[i], two_step[0])
                    << g.name() << " cap " << cap << " setup " << i;
            }
            for (std::size_t i = 2; i < designs.size(); ++i) {
                EXPECT_EQ(designs[i].sched.starts(), designs[i % 2].sched.starts()) << cap;
                EXPECT_EQ(designs[i].instance_of, designs[i % 2].instance_of) << cap;
            }
        }
        EXPECT_GT(bare.hits(), 0) << g.name();
        EXPECT_EQ(bare.hits(), cache.stats().hits) << g.name();
        EXPECT_EQ(bare.misses(), cache.stats().misses) << g.name();
    }
}

// ---------------------------------------------------------- lifetime memo

/// The battery stage's lifetime of `profile` under `spec`, integrated
/// directly.
double direct_lifetime(const power_profile& profile, const lifetime_spec& spec)
{
    const double alpha = spec.alpha > 0.0 ? spec.alpha
                                          : profile.energy() * spec.cycle_seconds * 100.0;
    return make_rakhmatov_battery(alpha, spec.beta)
        ->lifetime(to_load(profile, spec.voltage, spec.cycle_seconds, spec.idle_cycles),
                   spec.max_seconds)
        .seconds;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(explore_cache, lifetime_memo_matches_direct_integration)
{
    // Every lifetime on hal's 10^4-point plane is bit-equal to a direct
    // integration of its design's profile, and the memo holds one answer
    // per distinct profile.
    std::vector<synthesis_constraints> plane;
    for (int T = 17; T < 37; ++T)
        for (int i = 0; i < 500; ++i) plane.push_back({T, 2.0 + 18.0 * i / 499.0});
    const lifetime_spec spec;
    dse::session session(flow::on(make_hal()).with_library(lib()).estimate_lifetime(spec));
    std::set<std::vector<double>> profiles;
    std::size_t feasible = 0;
    dse::sink sk;
    sk.on_result = [&](std::size_t i, const flow_report& r) {
        if (!r.st.ok()) return;
        ++feasible;
        ASSERT_TRUE(r.has_lifetime) << i;
        const power_profile profile = r.dp.sched.profile(lib());
        profiles.insert(profile.values());
        EXPECT_EQ(bits(r.lifetime_seconds), bits(direct_lifetime(profile, spec))) << i;
    };
    session.explore(dse::list(plane), sk, 4);
    ASSERT_GT(feasible, 0u);
    EXPECT_EQ(session.cache()->lifetime_size(), profiles.size());
    EXPECT_LT(profiles.size(), feasible / 100);

    // Flows with different battery parameters share one cache through
    // reuse(); each must get its own spec's answer, never another's.
    std::vector<lifetime_spec> specs(5);
    specs[1].beta = 0.05;
    specs[2].idle_cycles = 4;
    specs[3].max_seconds = 3.0;
    specs[4].alpha = 40.0;
    const auto cache = std::make_shared<explore_cache>(make_hal(), lib());
    std::set<std::vector<double>> shared_profiles;
    for (const synthesis_constraints c :
         {synthesis_constraints{17, 9.0}, {17, 7.0}, {28, 6.0}, {36, 4.0}}) {
        std::set<std::uint64_t> answers;
        for (const lifetime_spec& s : specs) {
            const flow_report r = flow::on(make_hal())
                                      .with_library(lib())
                                      .constraints(c)
                                      .estimate_lifetime(s)
                                      .reuse(cache)
                                      .run();
            ASSERT_TRUE(r.st.ok()) << r.st.to_string();
            const power_profile profile = r.dp.sched.profile(lib());
            shared_profiles.insert(profile.values());
            EXPECT_EQ(bits(r.lifetime_seconds), bits(direct_lifetime(profile, s)))
                << "T=" << c.latency << " cap " << c.max_power;
            answers.insert(bits(r.lifetime_seconds));
        }
        EXPECT_EQ(answers.size(), specs.size()) << "T=" << c.latency << " cap " << c.max_power;
    }
    EXPECT_EQ(cache->lifetime_size(), shared_profiles.size() * specs.size());
}

// ------------------------------------------------------------ report memo

TEST(explore_cache, report_memo_serves_exact_duplicates_byte_identically)
{
    const graph g = make_hal();
    const std::vector<synthesis_constraints> grid = {
        {17, 9.0}, {17, 7.0}, {17, 9.0}, {17, 7.0}, {17, 9.0}};
    const std::vector<flow_report> reference = run_each(flow::on(g).with_library(lib()), grid);

    const auto cache = std::make_shared<explore_cache>(g, lib());
    const flow f = flow::on(g).with_library(lib()).reuse(cache);
    const std::vector<flow_report> cached = run_each(f, grid);
    ASSERT_EQ(cached.size(), reference.size());
    for (std::size_t i = 0; i < cached.size(); ++i)
        EXPECT_EQ(cached[i].to_string(), reference[i].to_string()) << i;

    // 2 distinct points -> 2 stored reports, 3 duplicate hits (exact at
    // one thread).
    EXPECT_EQ(cache->stats().report_misses, 2);
    EXPECT_EQ(cache->stats().report_hits, 3);

    // A repeated sweep over the shared cache is served whole.
    const std::vector<flow_report> again = run_each(f, grid);
    for (std::size_t i = 0; i < again.size(); ++i)
        EXPECT_EQ(again[i].to_string(), reference[i].to_string()) << i;
    EXPECT_EQ(cache->stats().report_hits, 8);
    EXPECT_EQ(cache->stats().report_misses, 2);
}

TEST(explore_cache, report_memo_fingerprint_separates_configurations)
{
    // One shared cache, one constraint point, several configurations:
    // every cached run must match its own uncached reference, proving
    // the fingerprints never collide across strategies or options.
    const graph g = make_hal();
    const auto cache = std::make_shared<explore_cache>(g, lib());
    const synthesis_constraints point{17, 9.0};

    synthesis_options locked;
    locked.lock_from_start = true;
    lifetime_spec cell;
    cell.beta = 0.2;

    const std::vector<std::function<flow(void)>> configs = {
        [&] { return flow::on(g).with_library(lib()).constraints(point); },
        [&] {
            return flow::on(g).with_library(lib()).constraints(point).synthesizer(
                "two_step");
        },
        [&] { return flow::on(g).with_library(lib()).constraints(point).options(locked); },
        [&] {
            return flow::on(g).with_library(lib()).constraints(point).estimate_lifetime(
                cell);
        },
    };
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const flow_report uncached = configs[i]().run();
        const flow_report cached = configs[i]().reuse(cache).run();
        EXPECT_EQ(cached.to_string(), uncached.to_string()) << "config " << i;
    }
    // Four distinct fingerprints were stored, none served another config.
    EXPECT_EQ(cache->stats().report_misses, 4);
    EXPECT_EQ(cache->stats().report_hits, 0);

    // Re-running any of them is now a pure hit.
    const flow_report repeat = configs[1]().reuse(cache).run();
    EXPECT_EQ(repeat.to_string(), configs[1]().run().to_string());
    EXPECT_EQ(cache->stats().report_hits, 1);
}

TEST(explore_cache, save_writes_exactly_the_report_memo_records)
{
    // A cache file holds one metric record per report-memo entry, full
    // or evicted, and nothing else.
    const graph g = make_hal();
    const auto cache = std::make_shared<explore_cache>(g, lib());
    cache->set_report_capacity(3); // leaves full and metric-only entries
    run_each(flow::on(g).with_library(lib()).reuse(cache), hal_grid(8));
    const std::size_t held = cache->report_full_size() + cache->report_metric_size();
    EXPECT_EQ(cache->report_full_size(), 3u);
    EXPECT_EQ(held, 8u);

    const std::string path =
        std::string(::testing::TempDir()) + "explore_cache_save_count.phlscache";
    EXPECT_EQ(cache->save(path), held);
    explore_cache fresh(g, lib());
    EXPECT_EQ(fresh.load(path), held);
    EXPECT_EQ(fresh.report_metric_size(), held);
    std::remove(path.c_str());
}

TEST(explore_cache, each_metric_snapshots_every_stored_record)
{
    // each_metric is the surrogate's pretraining feed: it must visit
    // every stored metric record exactly once, with its fingerprint,
    // and tolerate re-entrant cache use from inside the callback.
    const graph g = make_hal();
    const flow f = flow::on(g).with_library(lib()).latency(17);
    const std::vector<synthesis_constraints> grid = hal_grid(8);
    const auto cache = f.build_cache();
    run_each(flow::on(g).with_library(lib()).latency(17).reuse(cache), grid);

    std::size_t visited = 0;
    std::set<std::string> fingerprints;
    std::set<double> caps;
    cache->each_metric([&](const std::string& fp, const metric_record& m) {
        ++visited;
        EXPECT_FALSE(fp.empty());
        fingerprints.insert(fp);
        caps.insert(m.constraints.max_power);
        EXPECT_EQ(m.constraints.latency, 17);
        // Re-entrant lookups must not deadlock (fn runs outside the lock).
        flow_report probe;
        EXPECT_TRUE(cache->report_lookup(fp, &probe));
    });
    EXPECT_EQ(visited, grid.size());
    EXPECT_EQ(fingerprints.size(), grid.size());
    EXPECT_EQ(caps.size(), grid.size());

    // An empty cache yields nothing.
    std::size_t empty_visits = 0;
    f.build_cache()->each_metric(
        [&](const std::string&, const metric_record&) { ++empty_visits; });
    EXPECT_EQ(empty_visits, 0u);
}

// -------------------------------------------------------------- streaming

TEST(flow_stream, callback_sees_every_point_exactly_once)
{
    const graph g = make_hal();
    dse::session session(flow::on(g).with_library(lib()).latency(17));
    const std::vector<synthesis_constraints> grid = hal_grid(10);

    // Deliveries are serialised: no two callbacks ever overlap, even
    // though four workers finish points concurrently.
    std::set<std::size_t> seen;
    std::atomic<int> calls{0};
    std::atomic<int> in_flight{0};
    dse::sink sk;
    sk.on_result = [&](std::size_t i, const flow_report& r) {
        EXPECT_EQ(in_flight.fetch_add(1), 0) << "overlapping deliveries";
        ++calls;
        EXPECT_TRUE(seen.insert(i).second) << "index " << i << " delivered twice";
        EXPECT_LT(i, grid.size());
        if (i < grid.size()) {
            EXPECT_EQ(r.constraints.latency, grid[i].latency);
            EXPECT_DOUBLE_EQ(r.constraints.max_power, grid[i].max_power);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        in_flight.fetch_sub(1);
    };
    const dse::explore_summary sum = session.explore(dse::list(grid), sk, 4);
    EXPECT_EQ(calls.load(), static_cast<int>(grid.size()));
    EXPECT_EQ(seen.size(), grid.size());
    EXPECT_EQ(sum.evaluated, grid.size());
}

TEST(flow_stream, streamed_reports_match_the_final_vector)
{
    const graph g = make_cosine();
    const flow f = flow::on(g).with_library(lib()).latency(15);
    std::vector<synthesis_constraints> grid;
    for (double cap : f.power_grid(8)) grid.push_back({15, cap});

    std::vector<std::string> streamed(grid.size());
    dse::sink sk;
    sk.on_result = [&](std::size_t i, const flow_report& r) { streamed[i] = r.to_string(); };
    dse::session(f).explore(dse::list(grid), sk, 3);

    // What streamed is byte-identical to the sequential uncached run.
    const std::vector<flow_report> reference = run_each(f, grid);
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(streamed[i], reference[i].to_string()) << i;
}

TEST(flow_stream, callback_exception_is_rethrown_after_the_batch_drains)
{
    dse::session session(flow::on(make_hal()).with_library(lib()).latency(17));
    const std::vector<synthesis_constraints> grid = hal_grid(6);
    std::atomic<int> calls{0};
    dse::sink sk;
    sk.on_result = [&](std::size_t, const flow_report&) {
        ++calls;
        throw std::runtime_error("consumer failed");
    };
    EXPECT_THROW(session.explore(dse::list(grid), sk, 3), std::runtime_error);
    // The first throw cancels the remaining deliveries ...
    EXPECT_EQ(calls.load(), 1);
    // ... and is rethrown only after the workers drained: every point
    // was still computed into the memo.
    EXPECT_EQ(session.cache()->report_full_size(), grid.size());
}

TEST(flow_stream, single_worker_path_keeps_the_exception_contract)
{
    // workers == 1 bypasses the thread pool; the consumer contract must
    // not change: every point is still evaluated and delivered in input
    // order, the reports are filled, and the (first) exception is
    // rethrown after the pool drains.
    const flow f = flow::on(make_hal()).with_library(lib()).latency(17);
    const std::vector<synthesis_constraints> grid = hal_grid(5);

    std::vector<std::string> delivered;
    dse::sink last;
    last.on_result = [&](std::size_t i, const flow_report& r) {
        EXPECT_EQ(i, delivered.size()); // input order at 1 worker
        delivered.push_back(r.to_string());
        if (delivered.size() == grid.size())
            throw std::runtime_error("consumer failed on the last point");
    };
    EXPECT_THROW(dse::session(f).explore(dse::list(grid), last, 1), std::runtime_error);
    // Every report was computed and delivered filled before the throw.
    ASSERT_EQ(delivered.size(), grid.size());
    const std::vector<flow_report> reference = run_each(f, grid);
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(delivered[i], reference[i].to_string()) << i;

    // An exception on the FIRST delivery cancels the remaining ones; the
    // lone worker still drains every point before rethrowing.
    int calls = 0;
    dse::sink first;
    first.on_result = [&](std::size_t, const flow_report&) {
        ++calls;
        throw std::runtime_error("consumer failed immediately");
    };
    dse::session session(f);
    EXPECT_THROW(session.explore(dse::list(grid), first, 1), std::runtime_error);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(session.cache()->report_full_size(), grid.size());
}

TEST(flow_stream, negative_thread_count_is_invalid_on_every_point)
{
    const flow f = flow::on(make_hal()).with_library(lib()).latency(17);
    const std::vector<synthesis_constraints> grid = {{17, 9.0}, {17, 7.0}, {17, 1.0}};

    for (const int threads : {-1, -8}) {
        const std::vector<flow_report> reports = explore_all(f, grid, threads);
        ASSERT_EQ(reports.size(), grid.size()) << threads;
        for (std::size_t i = 0; i < reports.size(); ++i) {
            EXPECT_EQ(reports[i].st.code, status_code::invalid_argument) << i;
            EXPECT_NE(reports[i].st.message.find("thread count"), std::string::npos) << i;
            // The report still names its point and strategy.
            EXPECT_EQ(reports[i].constraints.latency, grid[i].latency) << i;
            EXPECT_EQ(reports[i].strategy, "greedy") << i;
        }
    }

    // Every failed report is delivered once.
    std::size_t delivered = 0;
    dse::sink sk;
    sk.on_result = [&](std::size_t, const flow_report& r) {
        ++delivered;
        EXPECT_EQ(r.st.code, status_code::invalid_argument);
    };
    dse::session(f).explore(dse::list(grid), sk, -2);
    EXPECT_EQ(delivered, grid.size());

    // 0 keeps meaning "hardware concurrency".
    const std::vector<flow_report> auto_threads = explore_all(f, grid, 0);
    EXPECT_TRUE(auto_threads[0].st.ok());
}

} // namespace
} // namespace phls
