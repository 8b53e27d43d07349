// Tests for serve::explore_sharded — the hard gate of the distributed
// service: however a space is cut (shard counts, threads vs forked
// subprocess workers), the merged global front is IDENTICAL to what a
// single-process dse::session::explore produces, and the per-shard
// cache files union into a cache whose replay behaviour matches the
// single warm cache.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "dse/session.h"
#include "flow/explore_cache.h"
#include "flow/flow.h"
#include "serve/shard.h"
#include "support/errors.h"
#include "sweep_util.h"

namespace phls {
namespace {

/// A fresh scratch directory under the test temp root.
std::string scratch_dir(const char* name)
{
    const std::string dir = std::string(::testing::TempDir()) + name;
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

// ------------------------------------------------------- front identity

TEST(shard, every_shard_count_lands_on_the_single_process_front)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(5);
    const std::vector<front_point> want = reference_front(grid);

    for (const int shards : {1, 2, 8}) {
        serve::shard_options opts;
        opts.shards = shards;
        const serve::shard_summary sum =
            serve::explore_sharded(hal17(), dse::list(grid), opts);
        EXPECT_EQ(sum.space_size, grid.size()) << shards << " shards";
        EXPECT_EQ(sum.evaluated, grid.size()) << shards << " shards";
        EXPECT_EQ(sum.front, want);
    }
}

TEST(shard, threads_mode_delivers_byte_identical_reports_at_global_indices)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(4);
    const std::vector<flow_report> reference = run_each(hal17(), grid);

    std::vector<flow_report> got(grid.size());
    std::set<std::size_t> seen;
    dse::sink sk;
    sk.on_result = [&](std::size_t i, const flow_report& r) {
        ASSERT_LT(i, got.size());
        EXPECT_TRUE(seen.insert(i).second) << "index " << i << " delivered twice";
        got[i] = r;
    };
    serve::shard_options opts;
    opts.shards = 3;
    serve::explore_sharded(hal17(), dse::list(grid), opts, sk);

    ASSERT_EQ(seen.size(), grid.size());
    // Cold shard sessions compute full reports; at its global index each
    // one is byte-identical to the sequential single-process sweep.
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(got[i].to_string(), reference[i].to_string()) << i;
}

TEST(shard, forked_subprocess_workers_produce_the_same_front)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(4);
    const std::vector<flow_report> reference = run_each(hal17(), grid);
    const std::vector<front_point> want = reference_front(grid);

    std::vector<flow_report> got(grid.size());
    dse::sink sk;
    sk.on_result = [&](std::size_t i, const flow_report& r) {
        ASSERT_LT(i, got.size());
        got[i] = r;
    };
    serve::shard_options opts;
    opts.shards = 3;
    opts.processes = true;
    const serve::shard_summary sum =
        serve::explore_sharded(hal17(), dse::list(grid), opts, sk);

    EXPECT_EQ(sum.evaluated, grid.size());
    EXPECT_EQ(sum.front, want);
    // Subprocess reports crossed the wire, so they are metric-only — but
    // the metrics themselves are exact.
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(got[i].st.code, reference[i].st.code) << i;
        if (!reference[i].st.ok()) continue;
        EXPECT_EQ(got[i].area, reference[i].area) << i;
        EXPECT_EQ(got[i].peak, reference[i].peak) << i;
        EXPECT_EQ(got[i].latency, reference[i].latency) << i;
    }
}

TEST(shard, more_shards_than_points_still_works)
{
    const std::vector<synthesis_constraints> grid = {{17, 5.5}, {17, 7.5}, {17, 9.5}};
    const std::vector<front_point> want = reference_front(grid);
    serve::shard_options opts;
    opts.shards = 8;
    const serve::shard_summary sum =
        serve::explore_sharded(hal17(), dse::list(grid), opts);
    EXPECT_EQ(sum.evaluated, grid.size());
    EXPECT_EQ(sum.front, want);
}

TEST(shard, adaptive_spaces_are_rejected)
{
    serve::shard_options opts;
    opts.shards = 2;
    EXPECT_THROW(serve::explore_sharded(
                     hal17(), dse::refine({17, 19, 21}, {5.5, 7.5, 9.5}), opts),
                 error);
    opts.shards = 0;
    EXPECT_THROW(serve::explore_sharded(hal17(), dse::list({{17, 5.5}}), opts), error);
}

// --------------------------------------------------- mergeable caches

TEST(shard, per_shard_cache_files_union_into_the_single_warm_cache)
{
    const std::vector<synthesis_constraints> grid = duplicated_grid(4);

    // Reference warm behaviour: one session computes everything, saves,
    // and a fresh session loaded from that file serves every point at
    // the metric level.
    const std::string single_path =
        std::string(::testing::TempDir()) + "shard_single.phlscache";
    std::vector<flow_report> reference(grid.size());
    {
        dse::session session(hal17());
        dse::sink sk;
        sk.on_result = [&](std::size_t i, const flow_report& r) { reference[i] = r; };
        session.explore(dse::list(grid), sk, 1);
        session.save(single_path);
    }
    dse::session single_warm(hal17());
    single_warm.load(single_path);
    const dse::explore_summary single_replay = single_warm.explore(dse::list(grid), {}, 1);
    EXPECT_EQ(single_replay.metric_served, grid.size());

    // Sharded sweep persisting one cache file per shard.
    const std::string dir = scratch_dir("shard_caches");
    serve::shard_options opts;
    opts.shards = 3;
    opts.cache_dir = dir;
    const serve::shard_summary sum =
        serve::explore_sharded(hal17(), dse::list(grid), opts);
    ASSERT_EQ(sum.cache_files.size(), 3u);

    // session::merge unions the shard files; replaying the whole grid
    // then behaves exactly like the single warm cache: every point is
    // served from metrics, none recomputed, same answers, same front.
    dse::session merged(hal17());
    std::size_t merged_records = 0;
    for (const std::string& path : sum.cache_files) merged_records += merged.merge(path);
    EXPECT_GT(merged_records, 0u);

    std::vector<flow_report> replay(grid.size());
    dse::sink sk;
    sk.on_result = [&](std::size_t i, const flow_report& r) { replay[i] = r; };
    const dse::explore_summary warm = merged.explore(dse::list(grid), sk, 1);
    EXPECT_EQ(warm.metric_served, single_replay.metric_served);
    EXPECT_EQ(warm.evaluated, grid.size());
    EXPECT_EQ(warm.front, single_replay.front);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(replay[i].st.code, reference[i].st.code) << i;
        if (!reference[i].st.ok()) continue;
        EXPECT_EQ(replay[i].area, reference[i].area) << i;
        EXPECT_EQ(replay[i].peak, reference[i].peak) << i;
    }

    // Merging a file twice adds nothing new.
    EXPECT_EQ(merged.merge(sum.cache_files[0]), 0u);

    std::remove(single_path.c_str());
    for (const std::string& path : sum.cache_files) std::remove(path.c_str());
}

// ------------------------------------------------------- guided shards

TEST(shard, guided_shards_land_on_the_single_process_front)
{
    // Per-shard surrogates prune locally; the merged front must still
    // equal the single-process eager front, and the summed counters
    // must partition the space (memo serves are evaluated - computed).
    std::vector<synthesis_constraints> grid;
    for (int T : {17, 19, 21})
        for (double cap : hal17().power_grid(40)) grid.push_back({T, cap});
    const std::vector<front_point> want = reference_front(grid);

    for (const int shards : {1, 3}) {
        serve::shard_options opts;
        opts.shards = shards;
        opts.threads_per_shard = 2;
        opts.guided = true;
        const serve::shard_summary sum =
            serve::explore_sharded(hal17(), dse::list(grid), opts);
        EXPECT_EQ(sum.front, want);
        EXPECT_EQ(sum.evaluated + sum.skipped, grid.size()) << shards << " shards";
        EXPECT_LE(sum.computed, sum.evaluated) << shards << " shards";
    }
}

TEST(shard, guided_rejects_forked_workers)
{
    serve::shard_options opts;
    opts.shards = 2;
    opts.processes = true;
    opts.guided = true;
    EXPECT_THROW(
        serve::explore_sharded(hal17(), dse::list(duplicated_grid(4)), opts), error);
}

TEST(shard, guided_per_shard_budget_caps_each_shard)
{
    std::vector<synthesis_constraints> grid;
    for (double cap : hal17().power_grid(60)) grid.push_back({17, cap});
    serve::shard_options opts;
    opts.shards = 2;
    opts.guided = true;
    opts.eval_budget = 10; // per shard
    const serve::shard_summary sum =
        serve::explore_sharded(hal17(), dse::list(grid), opts);
    EXPECT_LE(sum.computed, 2u * 10u);
    EXPECT_EQ(sum.evaluated + sum.skipped, grid.size());
}

TEST(shard, merge_files_combines_shard_caches_into_one_loadable_file)
{
    // Six DISTINCT caps: the two shards see disjoint point sets, so
    // every record each shard file contributes is novel at merge time.
    std::vector<synthesis_constraints> grid;
    for (double cap : hal17().power_grid(6)) grid.push_back({17, cap});
    const std::string dir = scratch_dir("shard_merge_files");
    serve::shard_options opts;
    opts.shards = 2;
    opts.cache_dir = dir;
    const serve::shard_summary sum =
        serve::explore_sharded(hal17(), dse::list(grid), opts);
    ASSERT_EQ(sum.cache_files.size(), 2u);

    const std::string out = dir + "/merged.phlscache";
    const cache_merge_stats stats = explore_cache::merge_files(out, sum.cache_files);
    ASSERT_EQ(stats.inputs.size(), 2u);
    EXPECT_GT(stats.metric_total, 0u);
    // Disjoint shards: every input record is novel at merge time.
    for (const cache_merge_stats::input& in : stats.inputs)
        EXPECT_EQ(in.new_metrics, in.metrics) << in.path;

    dse::session warm(hal17());
    EXPECT_GT(warm.load(out), 0u);
    const dse::explore_summary replay = warm.explore(dse::list(grid), {}, 1);
    EXPECT_EQ(replay.metric_served, grid.size());
    EXPECT_EQ(replay.front, sum.front);

    std::remove(out.c_str());
    for (const std::string& path : sum.cache_files) std::remove(path.c_str());
}

} // namespace
} // namespace phls
