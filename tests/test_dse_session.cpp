// Tests for dse::session: the unified explore() sink, byte-identity
// with sequential flow::run() calls, front-delta streaming, the bounded
// report memo, cache-file persistence and adaptive refinement.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdfg/benchmarks.h"
#include "dse/session.h"
#include "flow/explore_cache.h"
#include "flow/flow.h"
#include "flow/pareto_stream.h"
#include "support/errors.h"
#include "support/codec.h"
#include "sweep_util.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

/// A scratch file path unique to the test, cleaned up by the caller.
std::string scratch(const char* name)
{
    return std::string(::testing::TempDir()) + name;
}

// -------------------------------------------------------- explore basics

TEST(dse_session, cold_explore_is_byte_identical_to_sequential_runs)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(8);
    const std::vector<flow_report> reference = run_each(hal17(), grid);

    dse::session session(hal17());
    std::vector<flow_report> got;
    const dse::explore_summary sum = session.explore(dse::list(grid), collector(got), 1);

    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].to_string(), reference[i].to_string()) << i;
    EXPECT_EQ(sum.evaluated, grid.size());
    EXPECT_EQ(sum.space_size, grid.size());
    EXPECT_EQ(sum.metric_served, 0u);
    EXPECT_EQ(sum.front, pareto_points(reference));
}

TEST(dse_session, chunked_walk_is_byte_identical_too)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(8);
    const std::vector<flow_report> reference = run_each(hal17(), grid);

    // chunk = 3 forces duplicates into later chunks than their
    // originals: they must be served from the *full* report memo at scan
    // time, keeping every byte identical.
    dse::session session(hal17(), {.chunk = 3});
    std::vector<flow_report> got;
    session.explore(dse::list(grid), collector(got), 1);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].to_string(), reference[i].to_string()) << i;
    EXPECT_GT(session.cache()->stats().report_hits, 0);
}

TEST(dse_session, front_deltas_replay_to_the_final_front)
{
    dse::session session(hal17());
    std::vector<front_delta> deltas;
    dse::sink sk;
    sk.on_front = [&](const front_delta& d) {
        EXPECT_TRUE(d.changed()); // only changes are delivered
        deltas.push_back(d);
    };
    std::vector<synthesis_constraints> grid;
    for (double cap : hal17().power_grid(12)) grid.push_back({17, cap});
    const dse::explore_summary sum = session.explore(dse::list(grid), sk, 2);
    EXPECT_EQ(replay_front(deltas), sum.front);
    EXPECT_FALSE(sum.front.empty());
}

TEST(dse_session, negative_threads_fail_every_point_even_when_warm)
{
    // A malformed worker count reports invalid_argument on every point.
    // A warm memo must not leak ok answers past the validation.
    std::vector<synthesis_constraints> grid;
    for (double cap : hal17().power_grid(4)) grid.push_back({17, cap});

    dse::session session(hal17());
    session.explore(dse::list(grid), {}, 1); // warm the memo

    std::vector<flow_report> got;
    const dse::explore_summary sum =
        session.explore(dse::list(grid), collector(got), -2);
    ASSERT_EQ(got.size(), grid.size());
    for (const flow_report& r : got)
        EXPECT_EQ(r.st.code, status_code::invalid_argument);
    EXPECT_EQ(sum.feasible, 0u);
    EXPECT_TRUE(sum.front.empty());
}

TEST(dse_session, sink_exception_aborts_and_rethrows)
{
    dse::session session(hal17());
    dse::sink sk;
    sk.on_result = [](std::size_t, const flow_report&) {
        throw std::runtime_error("consumer failed");
    };
    std::vector<synthesis_constraints> grid;
    for (double cap : hal17().power_grid(4)) grid.push_back({17, cap});
    EXPECT_THROW(session.explore(dse::list(grid), sk, 1), std::runtime_error);
}

/// hal at latencies 17-19 across 40 caps from 2 to 20: 120 points,
/// infeasible, synthesised and span-served ones mixed.
std::vector<synthesis_constraints> small_plane()
{
    std::vector<synthesis_constraints> plane;
    for (int T = 17; T <= 19; ++T)
        for (int i = 0; i < 40; ++i) plane.push_back({T, 2.0 + 18.0 * i / 39.0});
    return plane;
}

TEST(dse_session, sink_calls_never_overlap_on_eight_threads)
{
    // Workers that find the delivery lock taken hold their reports back;
    // the sink must still be called one point at a time, once per point.
    // It spins inside every call so that workers do find the lock taken.
    const std::vector<synthesis_constraints> plane = small_plane();
    std::vector<int> arrivals(plane.size(), 0);
    std::atomic<bool> inside{false};
    std::atomic<int> overlaps{0};
    dse::sink sk;
    sk.on_result = [&](std::size_t i, const flow_report& r) {
        if (inside.exchange(true)) ++overlaps;
        ASSERT_LT(i, plane.size());
        ++arrivals[i];
        EXPECT_EQ(r.constraints.latency, plane[i].latency) << i;
        EXPECT_EQ(r.constraints.max_power, plane[i].max_power) << i;
        const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(50);
        while (std::chrono::steady_clock::now() < until) {
        }
        inside.store(false);
    };
    const dse::explore_summary eight =
        dse::session(hal17().estimate_lifetime()).explore(dse::list(plane), sk, 8);
    const dse::explore_summary one =
        dse::session(hal17().estimate_lifetime()).explore(dse::list(plane), {}, 1);

    EXPECT_EQ(overlaps.load(), 0);
    for (std::size_t i = 0; i < plane.size(); ++i) EXPECT_EQ(arrivals[i], 1) << i;
    EXPECT_EQ(eight.evaluated, one.evaluated);
    EXPECT_EQ(eight.feasible, one.feasible);
    EXPECT_EQ(eight.metric_served, one.metric_served);
    EXPECT_EQ(eight.front, one.front);
}

TEST(dse_session, sink_exception_on_four_threads_stops_later_deliveries)
{
    // The k-th call throws; reports workers held back meanwhile must not
    // reach the sink afterwards, and explore rethrows that exception.
    constexpr int k = 5;
    const std::vector<synthesis_constraints> plane = small_plane();
    for (int run = 0; run < 5; ++run) {
        std::atomic<int> calls{0};
        std::atomic<int> after_throw{0};
        std::atomic<bool> thrown{false};
        dse::sink sk;
        sk.on_result = [&](std::size_t, const flow_report&) {
            if (thrown.load()) ++after_throw;
            if (++calls == k) {
                thrown.store(true);
                throw std::runtime_error("sink failed at call 5");
            }
            const auto until =
                std::chrono::steady_clock::now() + std::chrono::microseconds(20);
            while (std::chrono::steady_clock::now() < until) {
            }
        };
        dse::session session(hal17());
        try {
            session.explore(dse::list(plane), sk, 4);
            ADD_FAILURE() << "explore did not rethrow the sink's exception";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "sink failed at call 5");
        }
        EXPECT_EQ(calls.load(), k) << "run " << run;
        EXPECT_EQ(after_throw.load(), 0) << "run " << run;
    }
}

// ------------------------------------------------------------ bounded memo

TEST(dse_session, bounded_memo_never_exceeds_capacity_and_serves_metrics)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(10);
    const std::vector<flow_report> reference = run_each(hal17(), grid);

    dse::session session(hal17(), {.memo_limit = 4, .chunk = 5});
    std::size_t max_full = 0;
    std::vector<flow_report> got(grid.size());
    dse::sink sk;
    sk.on_result = [&](std::size_t i, const flow_report& r) {
        got[i] = r;
        max_full = std::max(max_full, session.cache()->report_full_size());
    };
    const dse::explore_summary sum = session.explore(dse::list(grid), sk, 1);

    EXPECT_LE(max_full, 4u);
    EXPECT_LE(session.cache()->report_full_size(), 4u);
    EXPECT_GT(session.cache()->report_metric_size(), 0u);
    EXPECT_GT(sum.metric_served, 0u);
    // Metric answers carry the exact outcome and metrics of the
    // reference run, and the front is unchanged.
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(got[i].st.code, reference[i].st.code) << i;
        EXPECT_EQ(got[i].area, reference[i].area) << i;
        EXPECT_EQ(got[i].peak, reference[i].peak) << i;
        EXPECT_EQ(got[i].latency, reference[i].latency) << i;
    }
    EXPECT_EQ(sum.front, pareto_points(reference));
}

// ------------------------------------------------------------- persistence

TEST(dse_session, save_load_round_trip_preserves_answers_and_counters)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(8);
    const std::vector<flow_report> reference = run_each(hal17(), grid);
    const std::string path = scratch("session_round_trip.phlscache");

    dse::session cold(hal17());
    std::vector<flow_report> cold_reports;
    cold.explore(dse::list(grid), collector(cold_reports), 1);
    cold.save(path);

    // Two fresh warm sessions over the same file behave identically:
    // same loaded-record count, same served answers, same counters.
    explore_cache::counters counters[2];
    for (int run = 0; run < 2; ++run) {
        dse::session warm(hal17());
        const std::size_t loaded = warm.load(path);
        EXPECT_GT(loaded, 0u) << run;
        std::vector<flow_report> warm_reports;
        const dse::explore_summary sum =
            warm.explore(dse::list(grid), collector(warm_reports), 1);
        EXPECT_EQ(sum.metric_served, grid.size()) << run;
        ASSERT_EQ(warm_reports.size(), reference.size());
        for (std::size_t i = 0; i < warm_reports.size(); ++i) {
            EXPECT_EQ(warm_reports[i].st.code, reference[i].st.code) << run << ' ' << i;
            EXPECT_EQ(warm_reports[i].st.message, reference[i].st.message);
            EXPECT_EQ(warm_reports[i].area, reference[i].area) << run << ' ' << i;
            EXPECT_EQ(warm_reports[i].peak, reference[i].peak) << run << ' ' << i;
        }
        EXPECT_EQ(sum.front, pareto_points(reference)) << run;
        counters[run] = warm.cache()->stats();
    }
    EXPECT_EQ(counters[0].metric_hits, counters[1].metric_hits);
    EXPECT_EQ(counters[0].hits, counters[1].hits);
    EXPECT_EQ(counters[0].misses, counters[1].misses);
    EXPECT_EQ(counters[0].report_hits, counters[1].report_hits);

    // Saving a loaded cache reproduces the file byte-for-byte.
    dse::session again(hal17());
    again.load(path);
    const std::string path2 = scratch("session_round_trip2.phlscache");
    again.save(path2);
    std::ifstream a(path, std::ios::binary), b(path2, std::ios::binary);
    const std::string bytes_a((std::istreambuf_iterator<char>(a)), {});
    const std::string bytes_b((std::istreambuf_iterator<char>(b)), {});
    EXPECT_EQ(bytes_a, bytes_b);

    std::remove(path.c_str());
    std::remove(path2.c_str());
}

TEST(dse_session, corrupt_and_truncated_cache_files_fail_loudly)
{
    const std::string path = scratch("session_corrupt.phlscache");
    dse::session cold(hal17());
    std::vector<synthesis_constraints> grid;
    for (double cap : hal17().power_grid(4)) grid.push_back({17, cap});
    cold.explore(dse::list(grid), {}, 1);
    cold.save(path);

    std::ifstream is(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)), {});
    is.close();

    // Truncated: cut the tail off.
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
    }
    dse::session victim(hal17());
    EXPECT_THROW(victim.load(path), error);

    // Corrupt: flip one payload byte (checksum must catch it).
    {
        std::string evil = bytes;
        evil[evil.size() / 2] = static_cast<char>(evil[evil.size() / 2] ^ 0x5a);
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(evil.data(), static_cast<std::streamsize>(evil.size()));
    }
    EXPECT_THROW(victim.load(path), error);

    // Not a cache file at all.
    {
        std::ofstream os(path, std::ios::trunc);
        os << "just some text\n";
    }
    EXPECT_THROW(victim.load(path), error);

    // Missing file.
    std::remove(path.c_str());
    EXPECT_THROW(victim.load(path), error);
}

TEST(dse_session, cache_file_for_a_different_problem_is_rejected)
{
    const std::string path = scratch("session_mismatch.phlscache");
    dse::session hal_session(hal17());
    std::vector<synthesis_constraints> grid;
    for (double cap : hal17().power_grid(4)) grid.push_back({17, cap});
    hal_session.explore(dse::list(grid), {}, 1);
    hal_session.save(path);

    dse::session cosine_session(flow::on(make_cosine()).with_library(lib()).latency(15));
    EXPECT_THROW(cosine_session.load(path), error);
    std::remove(path.c_str());
}

// ------------------------------------------------------------------ refine

TEST(dse_session, refine_matches_the_eager_grid_front_with_fewer_points)
{
    const std::vector<int> lats = {17, 19, 21};
    const std::vector<double> caps = hal17().power_grid(12);

    dse::session eager(hal17());
    const dse::explore_summary eager_sum =
        eager.explore(dse::cross(lats, caps), {}, 1);

    dse::session adaptive(hal17());
    std::vector<std::size_t> seen;
    dse::sink sk;
    sk.on_result = [&](std::size_t i, const flow_report&) { seen.push_back(i); };
    const dse::explore_summary refine_sum =
        adaptive.explore(dse::refine(lats, caps), sk, 2);

    EXPECT_EQ(refine_sum.front, eager_sum.front);
    EXPECT_LE(refine_sum.evaluated, eager_sum.evaluated);
    EXPECT_EQ(refine_sum.evaluated, seen.size());
    // No point is delivered twice.
    std::sort(seen.begin(), seen.end());
    EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
    // Indices live on the lattice of the equivalent cross space.
    EXPECT_LT(seen.back(), dse::cross(lats, caps).size());
}

TEST(dse_session, session_cache_is_shareable_with_plain_flows)
{
    // The session's cache is a normal explore_cache: a flow::reuse()
    // caller sees the session's memo state.
    dse::session session(hal17());
    std::vector<synthesis_constraints> grid;
    for (double cap : hal17().power_grid(6)) grid.push_back({17, cap});
    session.explore(dse::list(grid), {}, 1);

    const flow f = hal17().reuse(session.cache());
    const std::vector<flow_report> direct = run_each(f, grid);
    const std::vector<flow_report> reference = run_each(hal17(), grid);
    ASSERT_EQ(direct.size(), reference.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(direct[i].to_string(), reference[i].to_string()) << i;
    EXPECT_GT(session.cache()->stats().report_hits, 0);
}

// ------------------------------------------------- typed cache errors

/// Saves a small warm cache to `path` and returns its raw bytes.
std::string saved_cache_bytes(const std::string& path)
{
    dse::session cold(hal17());
    std::vector<synthesis_constraints> grid;
    for (double cap : hal17().power_grid(3)) grid.push_back({17, cap});
    cold.explore(dse::list(grid), {}, 1);
    cold.save(path);
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)), {});
}

void overwrite(const std::string& path, const std::string& bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Loads `path` into a fresh session and returns the typed error it
/// must throw.
cache_file_error expect_load_failure(const std::string& path)
{
    dse::session victim(hal17());
    try {
        victim.load(path);
    } catch (const cache_file_error& e) {
        return e;
    }
    ADD_FAILURE() << "load('" << path << "') did not throw cache_file_error";
    return cache_file_error(cache_file_error::failure::io, path, "did not throw");
}

TEST(dse_session, load_error_reports_a_missing_file)
{
    const std::string path = scratch("session_err_missing.phlscache");
    std::remove(path.c_str());
    const cache_file_error e = expect_load_failure(path);
    EXPECT_EQ(e.kind(), cache_file_error::failure::missing);
    EXPECT_EQ(e.path(), path);
    // The message names the file, so a failed warm start is actionable.
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
}

TEST(dse_session, load_error_reports_truncation)
{
    const std::string path = scratch("session_err_trunc.phlscache");
    const std::string bytes = saved_cache_bytes(path);

    overwrite(path, bytes.substr(0, bytes.size() / 2)); // body cut short
    EXPECT_EQ(expect_load_failure(path).kind(), cache_file_error::failure::truncated);

    overwrite(path, bytes.substr(0, 10)); // even the header is incomplete
    EXPECT_EQ(expect_load_failure(path).kind(), cache_file_error::failure::truncated);

    overwrite(path, bytes.substr(0, bytes.size() - 3)); // checksum cut short
    EXPECT_EQ(expect_load_failure(path).kind(), cache_file_error::failure::truncated);
    std::remove(path.c_str());
}

TEST(dse_session, load_error_reports_corruption)
{
    const std::string path = scratch("session_err_corrupt.phlscache");
    const std::string bytes = saved_cache_bytes(path);

    // A flipped body byte fails the checksum.
    std::string evil = bytes;
    evil[evil.size() / 2] = static_cast<char>(evil[evil.size() / 2] ^ 0x5a);
    overwrite(path, evil);
    EXPECT_EQ(expect_load_failure(path).kind(), cache_file_error::failure::corrupt);

    // Trailing garbage after a checksum-clean file is corruption too.
    overwrite(path, bytes + "x");
    EXPECT_EQ(expect_load_failure(path).kind(), cache_file_error::failure::corrupt);

    // A wrong magic string is not a cache file at all.
    evil = bytes;
    evil[8] = 'X'; // first magic character, after its u64 length
    overwrite(path, evil);
    EXPECT_EQ(expect_load_failure(path).kind(), cache_file_error::failure::corrupt);
    std::remove(path.c_str());
}

TEST(dse_session, load_error_reports_a_version_mismatch)
{
    const std::string path = scratch("session_err_version.phlscache");
    std::string bytes = saved_cache_bytes(path);

    // The format version lives right after the length-prefixed magic
    // string, outside the checksummed body — bump its low byte and the
    // file reads as a valid cache from a different format generation.
    const std::size_t version_at = 8 + std::string("phls-explore-cache").size();
    ASSERT_LT(version_at, bytes.size());
    bytes[version_at] = static_cast<char>(bytes[version_at] + 1);
    overwrite(path, bytes);

    const cache_file_error e = expect_load_failure(path);
    EXPECT_EQ(e.kind(), cache_file_error::failure::version_mismatch);
    EXPECT_EQ(e.path(), path);
    std::remove(path.c_str());
}

TEST(dse_session, format_2_cache_files_are_version_mismatches_and_skipped_by_merge)
{
    // Files written before format 3 carried a committed-window table;
    // load() rejects them by their header and a skip_bad merge drops
    // them while merging the rest.
    const std::string old_file = scratch("session_err_v2.phlscache");
    const std::string good = scratch("session_v3.phlscache");
    const std::string out = scratch("session_v2_merged.phlscache");
    std::string bytes = saved_cache_bytes(old_file);
    saved_cache_bytes(good);

    const std::size_t version_at = 8 + std::string("phls-explore-cache").size();
    byte_writer v2;
    v2.i64(2);
    ASSERT_LT(version_at + v2.bytes().size(), bytes.size());
    bytes.replace(version_at, v2.bytes().size(), v2.bytes());
    overwrite(old_file, bytes);
    EXPECT_EQ(expect_load_failure(old_file).kind(),
              cache_file_error::failure::version_mismatch);

    const cache_merge_stats stats = explore_cache::merge_files(out, {old_file, good}, true);
    ASSERT_EQ(stats.inputs.size(), 2u);
    EXPECT_TRUE(stats.inputs[0].skipped);
    EXPECT_EQ(stats.inputs[0].skip_reason, "version-mismatch");
    EXPECT_FALSE(stats.inputs[1].skipped);
    EXPECT_EQ(stats.skipped_inputs, 1u);
    EXPECT_EQ(stats.metric_total, stats.inputs[1].metrics);
    for (const std::string& path : {old_file, good, out}) std::remove(path.c_str());
}

TEST(dse_session, format_3_cache_files_are_version_mismatches)
{
    // Format 3 files have the same 42-byte header as format 4 (a u64
    // magic length, the magic, i64 version and body length) but native
    // field widths in the body; load() rejects them by the version
    // alone, so they must be deleted, never misread.
    const std::string path = scratch("session_err_v3.phlscache");
    std::string bytes = saved_cache_bytes(path);
    const std::size_t version_at = 8 + std::string("phls-explore-cache").size();
    byte_writer v3;
    v3.i64(3);
    bytes.replace(version_at, v3.bytes().size(), v3.bytes());
    overwrite(path, bytes);
    const cache_file_error e = expect_load_failure(path);
    EXPECT_EQ(e.kind(), cache_file_error::failure::version_mismatch);
    EXPECT_NE(std::string(e.what()).find("format version 3 (this build reads version 4)"),
              std::string::npos)
        << e.what();
    std::remove(path.c_str());
}

TEST(dse_session, load_error_reports_a_problem_mismatch)
{
    const std::string path = scratch("session_err_problem.phlscache");
    saved_cache_bytes(path); // a valid hal cache

    dse::session cosine_session(flow::on(make_cosine()).with_library(lib()).latency(15));
    try {
        cosine_session.load(path);
        ADD_FAILURE() << "cosine session accepted a hal cache file";
    } catch (const cache_file_error& e) {
        EXPECT_EQ(e.kind(), cache_file_error::failure::problem_mismatch);
        EXPECT_EQ(e.path(), path);
    }
    std::remove(path.c_str());
}

TEST(dse_session, save_is_atomic_and_leaves_no_temp_file)
{
    const std::string path = scratch("session_atomic.phlscache");
    const std::string bytes = saved_cache_bytes(path);
    // The write goes through `<path>.tmp` + rename, so a reader never
    // observes a half-written cache and no temp file survives success.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());

    // Re-saving over an existing file replaces it atomically too.
    dse::session again(hal17());
    again.load(path);
    again.save(path);
    std::ifstream is(path, std::ios::binary);
    const std::string rewritten((std::istreambuf_iterator<char>(is)), {});
    EXPECT_EQ(rewritten, bytes);
    std::ifstream tmp2(path + ".tmp");
    EXPECT_FALSE(tmp2.good());
    std::remove(path.c_str());
}

TEST(dse_session, save_into_a_missing_directory_fails_loudly)
{
    const std::string path =
        std::string(::testing::TempDir()) + "no_such_dir/never.phlscache";
    dse::session session(hal17());
    session.explore(dse::list({{17, 7.5}}), {}, 1);
    try {
        session.save(path);
        ADD_FAILURE() << "save into a missing directory succeeded";
    } catch (const cache_file_error& e) {
        EXPECT_EQ(e.kind(), cache_file_error::failure::io);
        EXPECT_EQ(e.path(), path);
    }
}

// -------------------------------------------------------- cache merge

TEST(dse_session, merge_unions_disjoint_cache_files)
{
    // Two sessions each compute one half of the grid and save; a fresh
    // session that merges both files replays the WHOLE grid at the
    // metric level, like one cache that had computed everything.
    std::vector<synthesis_constraints> grid;
    for (double cap : hal17().power_grid(6)) grid.push_back({17, cap});
    const std::vector<synthesis_constraints> lo(grid.begin(), grid.begin() + 3);
    const std::vector<synthesis_constraints> hi(grid.begin() + 3, grid.end());

    const std::string lo_path = scratch("session_merge_lo.phlscache");
    const std::string hi_path = scratch("session_merge_hi.phlscache");
    {
        dse::session a(hal17());
        a.explore(dse::list(lo), {}, 1);
        a.save(lo_path);
        dse::session b(hal17());
        b.explore(dse::list(hi), {}, 1);
        b.save(hi_path);
    }

    dse::session merged(hal17());
    const std::size_t from_lo = merged.load(lo_path);
    const std::size_t from_hi = merged.load(hi_path);
    EXPECT_GT(from_lo, 0u);
    EXPECT_GT(from_hi, 0u);
    // Merging the same file again contributes nothing.
    EXPECT_EQ(merged.load(lo_path), 0u);

    const dse::explore_summary replay = merged.explore(dse::list(grid), {}, 1);
    EXPECT_EQ(replay.metric_served, grid.size());

    // And the replayed metrics match a cold evaluation exactly.
    const std::vector<flow_report> reference = run_each(hal17(), grid);
    std::vector<flow_report> got;
    dse::session check(hal17());
    check.load(lo_path);
    check.load(hi_path);
    check.explore(dse::list(grid), collector(got), 1);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].st.code, reference[i].st.code) << i;
        EXPECT_EQ(got[i].area, reference[i].area) << i;
        EXPECT_EQ(got[i].peak, reference[i].peak) << i;
        EXPECT_EQ(got[i].latency, reference[i].latency) << i;
    }
    std::remove(lo_path.c_str());
    std::remove(hi_path.c_str());
}

TEST(dse_session, merge_rejects_a_foreign_problem)
{
    const std::string path = scratch("session_merge_foreign.phlscache");
    saved_cache_bytes(path);
    dse::session cosine_session(flow::on(make_cosine()).with_library(lib()).latency(15));
    try {
        cosine_session.load(path);
        ADD_FAILURE() << "merge accepted a cache for a different problem";
    } catch (const cache_file_error& e) {
        EXPECT_EQ(e.kind(), cache_file_error::failure::problem_mismatch);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace phls
