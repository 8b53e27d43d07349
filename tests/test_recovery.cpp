// Tests for the fault-tolerance layer: the deterministic fault-point
// harness itself, supervised forked shard workers (respawn + dedupe =>
// byte-identical fronts), torn/corrupt cache and manifest files being
// rejected loudly (and skipped on request), client reconnect-and-
// continue, checkpoint-resume accounting, and the server's back-
// pressure and bind-retry behaviour.  Every injected failure asserts
// fault_fired() so a refactor that stops hitting the site turns the
// test red instead of silently passing on the happy path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dse/session.h"
#include "flow/explore_cache.h"
#include "flow/flow.h"
#include "serve/client.h"
#include "serve/manifest.h"
#include "serve/server.h"
#include "serve/shard.h"
#include "support/errors.h"
#include "support/codec.h"
#include "support/faultpoints.h"
#include "sweep_util.h"

namespace phls {
namespace {

using namespace serve;

/// Distinct caps only — required wherever metric_served does point
/// accounting (duplicated points are memo-served even fault-free).
std::vector<synthesis_constraints> distinct_grid(int points)
{
    std::vector<synthesis_constraints> grid;
    for (double cap : hal17().power_grid(points)) grid.push_back({17, cap});
    return grid;
}

/// A fresh scratch directory under the test temp root.
std::string scratch_dir(const char* name)
{
    const std::string dir = std::string(::testing::TempDir()) + name;
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

/// Rewrites `path`, a valid cache file or manifest, around a new `body`:
/// same magic and version, fresh body length and FNV-1a checksum, so the
/// file passes every framing check and only the body is hostile.
void reframe(const std::string& path, const std::string& body)
{
    std::ifstream is(path, std::ios::binary);
    const std::string old((std::istreambuf_iterator<char>(is)), {});
    byte_reader header(old);
    const std::string_view magic = header.raw(header.u64());
    const std::int64_t version = header.i64();

    byte_writer bytes;
    bytes.u64(magic.size());
    bytes.raw(magic);
    bytes.i64(version);
    bytes.i64(static_cast<std::int64_t>(body.size()));
    bytes.raw(body);
    std::uint64_t sum = 1469598103934665603ull;
    for (const unsigned char c : body) {
        sum ^= c;
        sum *= 1099511628211ull;
    }
    bytes.u64(sum);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes.bytes();
}

/// A checksum-clean cache-file body declaring the largest record count
/// its u32 field can hold.
std::string cache_body_with_a_huge_record_count()
{
    byte_writer body;
    body.str("graph");
    body.str("library");
    body.u32(0xFFFFFFFFu);
    return body.take();
}

/// Disarms every fault on scope exit, so a failing ASSERT cannot leak
/// an armed site into the next test of the same process.
struct fault_guard {
    explicit fault_guard(const char* spec) { fault_arm(spec); }
    ~fault_guard() { fault_clear(); }
};

// ------------------------------------------------- fault-point harness

TEST(faultpoints, unarmed_sites_never_fire_and_count_nothing)
{
    fault_clear();
    EXPECT_FALSE(fault_fire("recovery.test.site"));
    EXPECT_FALSE(fault_fire("recovery.test.site"));
    EXPECT_EQ(fault_hits("recovery.test.site"), 0u);
    EXPECT_FALSE(fault_fired("recovery.test.site"));
}

TEST(faultpoints, armed_site_fires_exactly_on_the_nth_hit_and_once)
{
    fault_guard guard("recovery.test.site:2");
    EXPECT_FALSE(fault_fire("recovery.test.site"));
    EXPECT_TRUE(fault_fire("recovery.test.site"));
    EXPECT_FALSE(fault_fire("recovery.test.site"));
    EXPECT_EQ(fault_hits("recovery.test.site"), 3u);
    EXPECT_TRUE(fault_fired("recovery.test.site"));
    // Other sites are counted while armed but never fire.
    EXPECT_FALSE(fault_fire("recovery.other.site"));
    EXPECT_EQ(fault_hits("recovery.other.site"), 1u);
}

TEST(faultpoints, rearming_resets_counters_and_clear_disarms)
{
    fault_arm("recovery.test.site:1");
    EXPECT_TRUE(fault_fire("recovery.test.site"));
    fault_arm("recovery.test.site:1"); // re-arm: fired flag and counts reset
    EXPECT_TRUE(fault_fire("recovery.test.site"));
    fault_clear();
    EXPECT_FALSE(fault_fire("recovery.test.site"));
    EXPECT_EQ(fault_hits("recovery.test.site"), 0u);
}

TEST(faultpoints, fork_while_another_thread_probes_does_not_hang_the_child)
{
    // A forked child inherits the registry's mutex in whatever state the
    // parent's threads left it; a child that inherits it locked blocks
    // forever on its first probe of an armed site.
    fault_guard guard("recovery.fork.site:1000000000");
    std::atomic<bool> stop{false};
    std::thread prober([&] {
        while (!stop.load(std::memory_order_relaxed)) fault_fire("recovery.fork.site");
    });
    int forked = 0, hung = 0;
    for (int i = 0; i < 50 && hung == 0; ++i) {
        const pid_t pid = ::fork();
        if (pid < 0) break;
        if (pid == 0) {
            fault_fire("recovery.fork.site");
            ::_exit(0);
        }
        ++forked;
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
        int status = 0;
        while (::waitpid(pid, &status, WNOHANG) == 0) {
            if (std::chrono::steady_clock::now() > deadline) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &status, 0);
                ++hung;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    stop = true;
    prober.join();
    EXPECT_EQ(forked, 50);
    EXPECT_EQ(hung, 0) << "a forked child blocked on the fault registry";
}

TEST(faultpoints, malformed_specs_are_rejected_loudly)
{
    EXPECT_THROW(fault_arm("no-count"), error);
    EXPECT_THROW(fault_arm("site:0"), error);
    EXPECT_THROW(fault_arm("site:-3"), error);
    EXPECT_THROW(fault_arm("site:seven"), error);
    EXPECT_THROW(fault_arm(":4"), error);
    fault_clear();
}

// ---------------------------------------------------- wire-level faults

TEST(recovery, truncated_frame_mid_send_is_a_wire_error_for_the_peer)
{
    int a_to_b[2] = {-1, -1};
    int b_to_a[2] = {-1, -1};
    ASSERT_EQ(::pipe(a_to_b), 0);
    ASSERT_EQ(::pipe(b_to_a), 0);
    channel a(b_to_a[0], a_to_b[1]);
    channel b(a_to_b[0], b_to_a[1]);

    fault_guard guard("wire.send.truncate:1");
    EXPECT_THROW(a.send(frame_type::hello, "payload-that-gets-cut"), wire_error);
    EXPECT_TRUE(fault_fired("wire.send.truncate"));
    // The peer sees half a frame then EOF: mid-frame truncation, not a
    // clean connection end — recv must throw, never return nullopt.
    EXPECT_THROW(b.recv(), wire_error);
}

TEST(recovery, injected_send_and_recv_failures_surface_as_wire_errors)
{
    int a_to_b[2] = {-1, -1};
    int b_to_a[2] = {-1, -1};
    ASSERT_EQ(::pipe(a_to_b), 0);
    ASSERT_EQ(::pipe(b_to_a), 0);
    channel a(b_to_a[0], a_to_b[1]);
    channel b(a_to_b[0], b_to_a[1]);

    {
        fault_guard guard("wire.send.fail:1");
        EXPECT_THROW(a.send(frame_type::hello, "x"), wire_error);
    }
    a.send(frame_type::hello, "x"); // disarmed: the channel still works
    {
        fault_guard guard("wire.recv.fail:1");
        EXPECT_THROW(b.recv(), wire_error);
    }
    const std::optional<channel::frame> f = b.recv();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, frame_type::hello);
}

// --------------------------------------------------- cache-file faults

TEST(recovery, torn_cache_save_throws_and_preserves_the_old_file)
{
    const std::string dir = scratch_dir("recovery_tear");
    const std::string path = dir + "/cache.phlscache";
    const std::vector<synthesis_constraints> grid = distinct_grid(3);

    dse::session warm(hal17());
    warm.explore(dse::list(grid), {}, 1);
    const std::size_t saved = warm.save(path);
    ASSERT_GT(saved, 0u);

    {
        fault_guard guard("cache.save.tear:1");
        EXPECT_THROW(warm.save(path), cache_file_error);
        EXPECT_TRUE(fault_fired("cache.save.tear"));
    }
    // The torn write went to the temporary file; the original is intact.
    dse::session fresh(hal17());
    EXPECT_EQ(fresh.load(path), saved);
}

TEST(recovery, corrupted_cache_save_is_rejected_on_load)
{
    const std::string dir = scratch_dir("recovery_corrupt_save");
    const std::string path = dir + "/cache.phlscache";

    dse::session warm(hal17());
    warm.explore(dse::list(distinct_grid(3)), {}, 1);
    {
        fault_guard guard("cache.save.corrupt:1");
        warm.save(path); // save itself succeeds; the body is damaged
        EXPECT_TRUE(fault_fired("cache.save.corrupt"));
    }
    dse::session fresh(hal17());
    try {
        fresh.load(path);
        FAIL() << "a corrupted cache file must not load";
    } catch (const cache_file_error& e) {
        EXPECT_EQ(e.kind(), cache_file_error::failure::corrupt);
    }
}

TEST(recovery, corrupted_manifest_save_is_rejected_on_load)
{
    const std::string dir = scratch_dir("recovery_manifest_corrupt_save");
    const std::string path = dir + "/sweep.phlsman";
    sweep_manifest m;
    m.problem_hash = 7;
    m.space_size = 4;
    m.done_ranges = {{0, 4}};
    m.cache_files = {"a.phlscache"};
    {
        fault_guard guard("manifest.save.corrupt:1");
        save_manifest(path, m); // save itself succeeds; the body is damaged
        EXPECT_TRUE(fault_fired("manifest.save.corrupt"));
    }
    try {
        load_manifest(path);
        FAIL() << "a corrupted manifest must not load";
    } catch (const cache_file_error& e) {
        EXPECT_EQ(e.kind(), cache_file_error::failure::corrupt);
    }
}

TEST(recovery, corrupted_cache_load_site_flips_a_read_byte)
{
    const std::string dir = scratch_dir("recovery_corrupt_load");
    const std::string path = dir + "/cache.phlscache";

    dse::session warm(hal17());
    warm.explore(dse::list(distinct_grid(3)), {}, 1);
    warm.save(path);

    fault_guard guard("cache.load.corrupt:1");
    dse::session fresh(hal17());
    try {
        fresh.load(path);
        FAIL() << "the injected read corruption must be detected";
    } catch (const cache_file_error& e) {
        EXPECT_EQ(e.kind(), cache_file_error::failure::corrupt);
        EXPECT_TRUE(fault_fired("cache.load.corrupt"));
    }
}

TEST(recovery, cache_merge_skip_bad_skips_and_reports_damaged_inputs)
{
    const std::string dir = scratch_dir("recovery_skipbad");
    const std::vector<synthesis_constraints> grid = duplicated_grid(4);
    const std::vector<front_point> want = reference_front(grid);

    serve::shard_options opts;
    opts.shards = 3;
    opts.cache_dir = dir;
    const shard_summary sum = explore_sharded(hal17(), dse::list(grid), opts);
    ASSERT_EQ(sum.cache_files.size(), 3u);

    // Truncate the middle shard's cache to half the header.
    {
        std::ofstream os(sum.cache_files[1],
                         std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(os);
        os.close();
        ASSERT_EQ(::truncate(sum.cache_files[1].c_str(), 10), 0);
    }

    const std::string out = dir + "/merged.phlscache";
    // Without the flag the damaged input aborts the whole merge.
    EXPECT_THROW(explore_cache::merge_files(out, sum.cache_files),
                 cache_file_error);
    // With it the merge proceeds and names the skipped input.
    const cache_merge_stats stats =
        explore_cache::merge_files(out, sum.cache_files, true);
    ASSERT_EQ(stats.inputs.size(), 3u);
    EXPECT_FALSE(stats.inputs[0].skipped);
    EXPECT_TRUE(stats.inputs[1].skipped);
    EXPECT_EQ(stats.inputs[1].skip_reason, "truncated");
    EXPECT_FALSE(stats.inputs[2].skipped);
    EXPECT_EQ(stats.skipped_inputs, 1u);

    // The merged survivors still replay their shards' front points.
    dse::session session(hal17());
    session.load(out);
    EXPECT_EQ(session.explore(dse::list(grid), {}, 1).front, want);
}

TEST(recovery, cache_file_declaring_more_records_than_its_body_holds_is_corrupt)
{
    const std::string dir = scratch_dir("recovery_huge_count");
    const std::string path = dir + "/cache.phlscache";
    dse::session warm(hal17());
    warm.explore(dse::list(distinct_grid(3)), {}, 1);
    warm.save(path);
    reframe(path, cache_body_with_a_huge_record_count());

    dse::session fresh(hal17());
    try {
        fresh.load(path);
        FAIL() << "a record count the body cannot hold must not load";
    } catch (const cache_file_error& e) {
        EXPECT_EQ(e.kind(), cache_file_error::failure::corrupt);
    }
}

TEST(recovery, cache_merge_skip_bad_skips_a_file_declaring_too_many_records)
{
    const std::string dir = scratch_dir("recovery_huge_count_merge");
    const std::string bad = dir + "/bad.phlscache";
    const std::string good = dir + "/good.phlscache";
    dse::session warm(hal17());
    warm.explore(dse::list(distinct_grid(3)), {}, 1);
    warm.save(bad);
    warm.save(good);
    reframe(bad, cache_body_with_a_huge_record_count());

    const cache_merge_stats stats =
        explore_cache::merge_files(dir + "/merged.phlscache", {bad, good}, true);
    ASSERT_EQ(stats.inputs.size(), 2u);
    EXPECT_TRUE(stats.inputs[0].skipped);
    EXPECT_EQ(stats.inputs[0].skip_reason, "corrupt");
    EXPECT_FALSE(stats.inputs[1].skipped);
    EXPECT_EQ(stats.metric_total, stats.inputs[1].metrics);
}

TEST(recovery, all_inputs_bad_still_aborts_even_with_skip_bad)
{
    const std::string dir = scratch_dir("recovery_allbad");
    const std::string bad = dir + "/bad.phlscache";
    std::ofstream(bad, std::ios::binary) << "not a cache";
    EXPECT_THROW(explore_cache::merge_files(dir + "/out.phlscache", {bad}, true),
                 error);
}

// ------------------------------------------------- supervised respawns

TEST(recovery, killed_forked_worker_is_respawned_and_the_front_is_identical)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(4);
    const std::vector<front_point> want = reference_front(grid);

    fault_guard guard("shard.worker.kill:1");
    std::set<std::size_t> seen;
    dse::sink sk;
    sk.on_result = [&](std::size_t i, const flow_report&) {
        EXPECT_TRUE(seen.insert(i).second) << "index " << i << " delivered twice";
    };
    serve::shard_options opts;
    opts.shards = 4;
    opts.processes = true;
    opts.retry_backoff_ms = 1; // keep the test fast
    const shard_summary sum = explore_sharded(hal17(), dse::list(grid), opts, sk);

    EXPECT_TRUE(fault_fired("shard.worker.kill"));
    EXPECT_EQ(sum.worker_retries, 1u);
    EXPECT_EQ(seen.size(), grid.size());
    EXPECT_EQ(sum.evaluated, grid.size());
    EXPECT_EQ(sum.front, want);
}

TEST(recovery, doomed_spawn_is_retried_and_counted)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(3);
    const std::vector<front_point> want = reference_front(grid);

    fault_guard guard("shard.spawn.doom:2");
    serve::shard_options opts;
    opts.shards = 3;
    opts.processes = true;
    opts.retry_backoff_ms = 1;
    const shard_summary sum = explore_sharded(hal17(), dse::list(grid), opts);

    EXPECT_TRUE(fault_fired("shard.spawn.doom"));
    EXPECT_GE(sum.worker_retries, 1u);
    EXPECT_EQ(sum.evaluated, grid.size());
    EXPECT_EQ(sum.front, want);
}

TEST(recovery, zero_retries_restores_fail_fast)
{
    fault_guard guard("shard.spawn.doom:1");
    serve::shard_options opts;
    opts.shards = 2;
    opts.processes = true;
    opts.max_retries = 0;
    EXPECT_THROW(
        explore_sharded(hal17(), dse::list(duplicated_grid(3)), opts),
        wire_error);
    EXPECT_TRUE(fault_fired("shard.spawn.doom"));
}

TEST(recovery, retry_options_are_validated)
{
    serve::shard_options opts;
    opts.max_retries = -1;
    EXPECT_THROW(explore_sharded(hal17(), dse::list(duplicated_grid(2)), opts),
                 error);
    opts.max_retries = 2;
    opts.retry_backoff_ms = -5;
    EXPECT_THROW(explore_sharded(hal17(), dse::list(duplicated_grid(2)), opts),
                 error);
    opts.retry_backoff_ms = 100;
    opts.manifest_path = "somewhere.phlsman"; // manifest needs a cache dir
    EXPECT_THROW(explore_sharded(hal17(), dse::list(duplicated_grid(2)), opts),
                 error);
}

// ---------------------------------------------------------- manifests

TEST(recovery, manifest_round_trips_and_checks_its_ranges)
{
    const std::string dir = scratch_dir("recovery_manifest");
    const std::string path = dir + "/sweep.phlsman";

    sweep_manifest m;
    m.problem_hash = manifest_problem_hash(hal17(), dse::list(distinct_grid(3)));
    m.space_size = 40;
    m.done_ranges = {{0, 10}, {20, 40}};
    m.cache_files = {dir + "/shard0.phlscache", dir + "/shard2.phlscache"};
    save_manifest(path, m);

    const sweep_manifest back = load_manifest(path);
    EXPECT_EQ(back.problem_hash, m.problem_hash);
    EXPECT_EQ(back.space_size, 40u);
    ASSERT_EQ(back.done_ranges.size(), 2u);
    EXPECT_EQ(back.done_ranges[1].begin, 20u);
    EXPECT_EQ(back.done_ranges[1].end, 40u);
    EXPECT_EQ(back.cache_files, m.cache_files);
    EXPECT_EQ(back.done_points(), 30u);
}

TEST(recovery, problem_hash_distinguishes_problems_and_is_stable)
{
    const dse::space sp = dse::list(distinct_grid(4));
    EXPECT_EQ(manifest_problem_hash(hal17(), sp),
              manifest_problem_hash(hal17(), sp));
    // A different grid — even over the same prototype — is a different
    // sweep: resuming one from the other's caches must be rejected.
    EXPECT_NE(manifest_problem_hash(hal17(), sp),
              manifest_problem_hash(hal17(), dse::list(distinct_grid(5))));
    // And so is a different latency, which lives in the space's points.
    std::vector<synthesis_constraints> slower = distinct_grid(4);
    for (synthesis_constraints& p : slower) p.latency = 18;
    EXPECT_NE(manifest_problem_hash(hal17(), sp),
              manifest_problem_hash(hal17(), dse::list(slower)));
}

TEST(recovery, problem_hash_is_pinned)
{
    // The hash is FNV-1a over the job frame's payload, whose bytes the
    // wire pins: a manifest written by an earlier build must keep
    // matching its sweep, so these values never move.
    EXPECT_EQ(manifest_problem_hash(hal17(), dse::list({{17, 5.5}, {17, 7.5}, {19, 9.25}})),
              0xd4e4f9974d263988ull);
    EXPECT_EQ(manifest_problem_hash(hal17(), dse::cross({17, 19}, {5.5, 7.5})),
              0xf5907a648ed29035ull);
}

TEST(recovery, damaged_manifests_are_rejected_loudly)
{
    const std::string dir = scratch_dir("recovery_manifest_bad");
    const std::string path = dir + "/sweep.phlsman";
    sweep_manifest m;
    m.problem_hash = 7;
    m.space_size = 4;
    m.done_ranges = {{0, 4}};
    m.cache_files = {"a.phlscache"};
    save_manifest(path, m);

    // Injected read corruption => corrupt.
    {
        fault_guard guard("manifest.load.corrupt:1");
        try {
            load_manifest(path);
            FAIL() << "corrupt manifest must not load";
        } catch (const cache_file_error& e) {
            EXPECT_EQ(e.kind(), cache_file_error::failure::corrupt);
        }
    }
    // Physical truncation => truncated.
    ASSERT_EQ(::truncate(path.c_str(), 12), 0);
    try {
        load_manifest(path);
        FAIL() << "truncated manifest must not load";
    } catch (const cache_file_error& e) {
        EXPECT_EQ(e.kind(), cache_file_error::failure::truncated);
    }
    // Missing file => missing.
    try {
        load_manifest(dir + "/absent.phlsman");
        FAIL() << "missing manifest must not load";
    } catch (const cache_file_error& e) {
        EXPECT_EQ(e.kind(), cache_file_error::failure::missing);
    }
}

TEST(recovery, manifest_declaring_more_entries_than_its_body_holds_is_corrupt)
{
    const std::string dir = scratch_dir("recovery_manifest_huge");
    const std::string path = dir + "/sweep.phlsman";
    save_manifest(path, sweep_manifest{});

    // The largest count a u32 field can hold: of done ranges, then
    // (with none) of cache files.
    for (const bool huge_ranges : {true, false}) {
        byte_writer body;
        body.u64(7); // problem hash
        body.u64(4); // space size
        body.u32(huge_ranges ? 0xFFFFFFFFu : 0);
        if (!huge_ranges) body.u32(0xFFFFFFFFu);
        reframe(path, body.bytes());
        try {
            load_manifest(path);
            FAIL() << "a count the body cannot hold must not load";
        } catch (const cache_file_error& e) {
            EXPECT_EQ(e.kind(), cache_file_error::failure::corrupt) << huge_ranges;
        }
    }
}

TEST(recovery, manifest_version_1_is_a_version_mismatch)
{
    // Manifests written before format 2 carry version 1 right after the
    // length-prefixed magic, outside the checksummed body; load rejects
    // them by their header, whatever their body holds.
    const std::string dir = scratch_dir("recovery_manifest_v1");
    const std::string path = dir + "/sweep.phlsman";
    save_manifest(path, sweep_manifest{});
    std::string bytes;
    {
        std::ifstream is(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is), {});
    }
    const std::size_t version_at = 8 + std::string("phls-sweep-manifest").size();
    byte_writer v1;
    v1.i64(1);
    ASSERT_LT(version_at + v1.bytes().size(), bytes.size());
    bytes.replace(version_at, v1.bytes().size(), v1.bytes());
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    try {
        load_manifest(path);
        FAIL() << "a version-1 manifest must not load";
    } catch (const cache_file_error& e) {
        EXPECT_EQ(e.kind(), cache_file_error::failure::version_mismatch);
        EXPECT_EQ(e.path(), path);
    }
}

TEST(recovery, torn_manifest_save_preserves_the_old_manifest)
{
    const std::string dir = scratch_dir("recovery_manifest_tear");
    const std::string path = dir + "/sweep.phlsman";
    sweep_manifest m;
    m.problem_hash = 1;
    m.space_size = 8;
    m.done_ranges = {{0, 8}};
    save_manifest(path, m);

    m.space_size = 9; // the update that tears
    {
        fault_guard guard("manifest.save.tear:1");
        EXPECT_THROW(save_manifest(path, m), cache_file_error);
        EXPECT_TRUE(fault_fired("manifest.save.tear"));
    }
    EXPECT_EQ(load_manifest(path).space_size, 8u);
}

// ------------------------------------------------- checkpoint + resume

TEST(recovery, resume_after_mid_sweep_kill_recomputes_only_unfinished_ranges)
{
    const std::string dir = scratch_dir("recovery_resume");
    // Distinct caps: metric_served then counts exactly the points the
    // warm cache answers, with no duplicate-point serves mixed in.
    const std::vector<synthesis_constraints> grid = distinct_grid(6);
    const std::vector<front_point> want = reference_front(grid);

    serve::shard_options opts;
    opts.shards = 3;
    opts.processes = true;
    opts.max_retries = 0; // a completed shard's cache covers its whole range
    opts.cache_dir = dir;
    opts.manifest_path = dir + "/sweep.phlsman";
    {
        fault_guard guard("shard.spawn.doom:2");
        EXPECT_THROW(explore_sharded(hal17(), dse::list(grid), opts), wire_error);
    }

    // The manifest survived the failed sweep and records the shards
    // that did complete — strictly between nothing and everything.
    const sweep_manifest man = load_manifest(opts.manifest_path);
    EXPECT_EQ(man.problem_hash, manifest_problem_hash(hal17(), dse::list(grid)));
    EXPECT_EQ(man.space_size, grid.size());
    ASSERT_GT(man.done_points(), 0u);
    ASSERT_LT(man.done_points(), grid.size());
    ASSERT_EQ(man.cache_files.size(), man.done_ranges.size());

    // Resume: merge the finished shards' caches into a fresh session and
    // re-run the space.  Exactly the checkpointed points are served from
    // the warm metrics; only the doomed shard's range is recomputed.
    dse::session session(hal17());
    for (const std::string& path : man.cache_files)
        EXPECT_GT(session.load(path), 0u) << path;
    const dse::explore_summary sum = session.explore(dse::list(grid), {}, 1);
    EXPECT_EQ(sum.evaluated, grid.size());
    EXPECT_EQ(sum.metric_served, man.done_points());
    EXPECT_EQ(sum.front, want);
}

TEST(recovery, threads_mode_checkpoints_every_completed_shard)
{
    const std::string dir = scratch_dir("recovery_ckpt_threads");
    const std::vector<synthesis_constraints> grid = distinct_grid(4);

    serve::shard_options opts;
    opts.shards = 2;
    opts.cache_dir = dir;
    opts.manifest_path = dir + "/sweep.phlsman";
    explore_sharded(hal17(), dse::list(grid), opts);

    const sweep_manifest man = load_manifest(opts.manifest_path);
    EXPECT_EQ(man.space_size, grid.size());
    EXPECT_EQ(man.done_points(), grid.size());
    EXPECT_EQ(man.cache_files.size(), 2u);
}

// ------------------------------------------------------ client retries

TEST(recovery, resilient_client_reconnects_and_the_sweep_completes)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(4);
    const std::vector<front_point> want = reference_front(grid);

    server_options sopts;
    sopts.socket_path = std::string(::testing::TempDir()) + "recovery_drop.sock";
    std::remove(sopts.socket_path.c_str());
    server srv(sopts);
    srv.start();

    // The server mutes the stream after the first report and drops the
    // connection once the job finishes; the client must redial, resubmit
    // and deduplicate the replayed points.
    fault_guard guard("serve.conn.drop:1");
    reconnect_options ropts;
    ropts.max_retries = 2;
    ropts.backoff_ms = 1;
    client c([&] { return connect_unix(sopts.socket_path); }, ropts);

    std::set<std::size_t> seen;
    std::vector<front_delta> deltas;
    dse::sink sk;
    sk.on_result = [&](std::size_t i, const flow_report&) {
        EXPECT_TRUE(seen.insert(i).second) << "index " << i << " delivered twice";
    };
    sk.on_front = [&](const front_delta& d) { deltas.push_back(d); };
    const dse::explore_summary sum = c.explore(make_job(hal17(), dse::list(grid)), sk);
    c.bye();
    srv.stop();

    EXPECT_TRUE(fault_fired("serve.conn.drop"));
    EXPECT_EQ(c.reconnects(), 1u);
    EXPECT_EQ(seen.size(), grid.size());
    EXPECT_EQ(sum.evaluated, grid.size());
    EXPECT_EQ(sum.front, want);
    // Replaying the client's deltas reconstructs the same front.
    EXPECT_EQ(replay_front(deltas), want);
}

TEST(recovery, resilient_client_gives_up_once_the_retry_budget_is_spent)
{
    // Every dial lands on nothing: connect_unix throws wire_error each
    // attempt, and the budget bounds the attempts.
    const std::string nowhere =
        std::string(::testing::TempDir()) + "recovery_absent.sock";
    std::size_t dials = 0;
    reconnect_options ropts;
    ropts.max_retries = 2;
    ropts.backoff_ms = 1;
    client c(
        [&] {
            ++dials;
            return connect_unix(nowhere);
        },
        ropts);
    EXPECT_THROW(c.explore(make_job(hal17(), dse::list({{17, 7.5}}))), wire_error);
    EXPECT_EQ(dials, 3u); // first attempt + two retries
}

TEST(recovery, rejected_jobs_are_not_retried)
{
    server_options sopts;
    sopts.socket_path = std::string(::testing::TempDir()) + "recovery_reject.sock";
    std::remove(sopts.socket_path.c_str());
    server srv(sopts);
    srv.start();

    std::size_t dials = 0;
    reconnect_options ropts;
    ropts.max_retries = 3;
    ropts.backoff_ms = 1;
    client c(
        [&] {
            ++dials;
            return connect_unix(sopts.socket_path);
        },
        ropts);
    job_request bad = make_job(hal17(), dse::list({{17, 7.5}}));
    bad.scheduler = "no-such-scheduler";
    EXPECT_THROW(c.explore(bad), error);
    c.bye();
    srv.stop();
    EXPECT_EQ(dials, 1u); // a resubmission would be rejected identically
}

// --------------------------------------------------- server hardening

TEST(recovery, clients_past_the_bound_get_a_loud_capacity_reject)
{
    server_options sopts;
    sopts.socket_path = std::string(::testing::TempDir()) + "recovery_cap.sock";
    std::remove(sopts.socket_path.c_str());
    sopts.max_clients = 1;
    server srv(sopts);
    srv.start();

    const auto dial = [&] { return connect_unix(sopts.socket_path); };
    const job_request job = make_job(hal17(), dse::list({{17, 7.5}}));
    client first(dial);
    first.explore(job); // its open connection fills the only slot
    client second(dial);
    try {
        second.explore(job);
        FAIL() << "the second client must be rejected at capacity";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos)
            << e.what();
    }
    // The admitted client is unaffected by its neighbour's rejection.
    EXPECT_EQ(first.explore(job).evaluated, 1u);
    first.bye();
    srv.stop();
    EXPECT_EQ(srv.stats().overloaded, 1u);
}

TEST(recovery, max_clients_must_be_positive)
{
    server_options sopts;
    sopts.socket_path = std::string(::testing::TempDir()) + "recovery_mc.sock";
    sopts.max_clients = 0;
    EXPECT_THROW(server srv(sopts), error);
}

TEST(recovery, tcp_bind_retries_until_a_transient_conflict_clears)
{
    // Occupy an ephemeral port with a raw listener, release it shortly
    // after the server starts binding: the bind retry must pick it up.
    const int blocker = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(blocker, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(blocker, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    ASSERT_EQ(::listen(blocker, 1), 0);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::getsockname(blocker, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    const int port = ntohs(addr.sin_port);

    std::thread releaser([blocker] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        ::close(blocker);
    });
    server_options sopts;
    sopts.port = port;
    server srv(sopts); // would throw without the EADDRINUSE retry
    releaser.join();
    EXPECT_EQ(srv.port(), port);
    srv.stop();
}

} // namespace
} // namespace phls
