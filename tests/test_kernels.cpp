// Byte-identity of the optimised synthesis kernels against the
// retained reference implementations, across the kernel_knobs()
// ablation matrix: skip-ahead power probing, the best-first candidate
// frontier (scoring on the SoA synthesis arena) and undo-log rollback
// must change wall time only -- never a schedule, a datapath, a counter
// or a diagnostic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/benchmarks.h"
#include "cdfg/builder.h"
#include "cdfg/random_dag.h"
#include "flow/flow.h"
#include "sched/pasap.h"
#include "support/kernels.h"
#include "support/strings.h"
#include "synth/arena.h"
#include "synth/candidates.h"
#include "synth/synthesizer.h"
#include "sweep_util.h"
#include "ten_k_reference.h"

namespace phls {
namespace {

const module_library& lib() { return reference_library(); }

/// Restores the global knobs on scope exit so tests cannot leak state.
struct knob_guard {
    kernel_tuning saved = kernel_knobs();
    ~knob_guard() { kernel_knobs() = saved; }
};

std::string run_with(const kernel_tuning& knobs, const graph& g,
                     const synthesis_constraints& c, const synthesis_options& o = {})
{
    const knob_guard guard;
    kernel_knobs() = knobs;
    return render(g, synthesize(g, lib(), c, o));
}

TEST(kernels, paper_benchmarks_identical_across_every_knob)
{
    for (const auto& [name, T] : {std::pair<const char*, int>{"hal", 17},
                                  {"cosine", 15}, {"elliptic", 22}}) {
        const graph g = benchmark_by_name(name);
        // From generous to infeasibly tight, crossing the backtrack-lock
        // and rejection regimes.
        for (const double cap : {unbounded_power, 40.0, 12.0, 7.1, 5.0, 2.3}) {
            const synthesis_constraints c{T, cap};
            const std::string reference = run_with(all_reference(), g, c);
            EXPECT_EQ(run_with(kernel_tuning{}, g, c), reference)
                << name << " cap " << cap << ": all-optimised diverges";
            for (int knob = 0; knob < 5; ++knob) {
                kernel_tuning k; // one optimisation toggled at a time
                if (knob == 0) k.skip_probe = false;
                if (knob == 1) k.incremental_candidates = false;
                if (knob == 2) k.undo_log = false;
                if (knob == 3) k.dense_power = false;
                if (knob == 4) k.intra_threads = 8;
                EXPECT_EQ(run_with(k, g, c), reference)
                    << name << " cap " << cap << ": knob " << knob << " diverges";
            }
        }
    }
}

TEST(kernels, option_variants_identical_across_knobs)
{
    const graph g = make_cosine();
    std::vector<synthesis_options> variants(4);
    variants[1].lock_from_start = true;
    variants[2].enable_backtrack_lock = false;
    variants[3].allow_cheapest_rebind = false;
    variants[3].order = pasap_order::topological;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        for (const double cap : {9.0, 5.5, 3.0}) {
            const synthesis_constraints c{16, cap};
            EXPECT_EQ(run_with(kernel_tuning{}, g, c, variants[i]),
                      run_with(all_reference(), g, c, variants[i]))
                << "variant " << i << " cap " << cap;
        }
    }
}

TEST(kernels, cross_check_validates_incremental_store_on_random_dags)
{
    // cross_check makes the merge loop run BOTH candidate paths and
    // throw on any divergence, decision for decision -- a much finer
    // probe than comparing final outputs.
    const knob_guard guard;
    kernel_knobs() = kernel_tuning{};
    kernel_knobs().cross_check = true;

    for (const std::uint64_t seed : {1ull, 7ull, 23ull, 101ull}) {
        random_dag_params params;
        params.operations = 26;
        params.inputs = 4;
        const graph g = random_dag(params, seed);
        const module_assignment fast = fastest_assignment(g, lib(), unbounded_power);
        const int cp = critical_path_length(
            g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });

        const synthesis_result probe = synthesize(g, lib(), {cp + 6, unbounded_power});
        ASSERT_TRUE(probe.feasible) << probe.reason;
        for (const double scale : {1.0, 0.7, 0.45}) {
            const double cap = scale * probe.dp.peak_power(lib());
            const synthesis_result r = synthesize(g, lib(), {cp + 6, cap});
            if (r.feasible) {
                EXPECT_GE(r.stats.merges, 0);
            }
        }
    }
}

TEST(kernels, random_dags_identical_across_knobs)
{
    for (const std::uint64_t seed : {3ull, 12ull, 64ull}) {
        random_dag_params params;
        params.operations = 32;
        params.inputs = 5;
        params.layers = 6;
        const graph g = random_dag(params, seed);
        const module_assignment fast = fastest_assignment(g, lib(), unbounded_power);
        const int cp = critical_path_length(
            g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });
        for (const double cap : {30.0, 11.0, 6.0}) {
            const synthesis_constraints c{cp + 5, cap};
            EXPECT_EQ(run_with(kernel_tuning{}, g, c), run_with(all_reference(), g, c))
                << "seed " << seed << " cap " << cap;
        }
    }
}

TEST(kernels, truncated_merge_loop_identical_across_knobs)
{
    // bench_kernels compares the kernels over an attempt-bounded prefix;
    // that prefix must itself be byte-identical between the paths.
    const graph g = make_elliptic();
    synthesis_options o;
    o.verify_result = false; // a truncated loop may miss the area target
    for (const int attempts : {0, 1, 4, 9}) {
        o.max_merge_attempts = attempts;
        EXPECT_EQ(run_with(kernel_tuning{}, g, {22, 20.0}, o),
                  run_with(all_reference(), g, {22, 20.0}, o))
            << "attempt cap " << attempts;
    }
}

TEST(kernels, thousand_op_dag_identical_across_every_knob)
{
    // Mid-scale anchor for the large-graph path: a 1000-op DAG from the
    // bench_kernels synthetic family, attempt-bounded, compared against
    // the seed-era reference for the all-optimised default and each
    // optimisation toggled alone.
    random_dag_params params;
    params.operations = 1000;
    params.inputs = 83; // the bench family's n/12 input ratio
    params.layers = 10;
    params.mult_fraction = 0.0;
    const graph g = random_dag(params, 777 + 1000);
    const module_assignment fast = fastest_assignment(g, lib(), unbounded_power);
    const int cp = critical_path_length(
        g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });

    synthesis_options o;
    o.lock_from_start = true;
    o.try_both_prospects = false;
    o.verify_result = false; // a truncated loop may miss the area target
    o.max_merge_attempts = 2;
    const synthesis_constraints c{cp + 4, unbounded_power};

    const std::string reference = run_with(all_reference(), g, c, o);
    EXPECT_EQ(run_with(kernel_tuning{}, g, c, o), reference) << "all-optimised";
    for (int knob = 0; knob < 5; ++knob) {
        kernel_tuning k;
        if (knob == 0) k.skip_probe = false;
        if (knob == 1) k.incremental_candidates = false;
        if (knob == 2) k.undo_log = false;
        if (knob == 3) k.dense_power = false;
        if (knob == 4) k.intra_threads = 8;
        EXPECT_EQ(run_with(k, g, c, o), reference) << "knob " << knob;
    }
}

TEST(kernels, ten_k_op_dag_identical_across_threads)
{
    // The data-oriented rewrite targets graphs two orders of magnitude
    // beyond the paper benchmarks.  Run an attempt-bounded prefix of the
    // merge loop on a 10k-operation DAG and demand that the optimised
    // kernels at 1, 2 and 8 intra-point threads render byte-identically
    // to the seed-era reference.  The reference render is represented
    // by its committed digest: recomputing it takes about 100 s and
    // 5 GB, so the ten_k_reference program checks that half in a CI job
    // of its own (see tests/ten_k_reference.h).
    const ten_k_workload w = make_ten_k_workload();
    for (const int threads : {1, 2, 8}) {
        kernel_tuning k;
        k.intra_threads = threads;
        EXPECT_EQ(render_digest(run_ten_k(w, k)), ten_k_reference_digest)
            << threads << " intra-point threads diverge on the 10k-op DAG";
    }
}

TEST(kernels, cross_check_validates_arena_scoring_on_random_dags)
{
    // Like the frontier fuzz above, but aimed at the SoA arena:
    // cross_check re-runs the reference enumeration (arena detached)
    // after every pick, so a single mis-scored combo anywhere in a run
    // aborts the synthesis.
    const knob_guard guard;
    for (const int threads : {1, 8}) {
        kernel_knobs() = kernel_tuning{};
        kernel_knobs().cross_check = true;
        kernel_knobs().intra_threads = threads;
        for (const std::uint64_t seed : {5ull, 41ull, 97ull}) {
            random_dag_params params;
            params.operations = 30;
            params.inputs = 5;
            params.mult_fraction = seed % 2 == 0 ? 0.3 : 0.0;
            const graph g = random_dag(params, seed);
            const module_assignment fast =
                fastest_assignment(g, lib(), unbounded_power);
            const int cp = critical_path_length(
                g, [&](node_id v) { return lib().module(fast[v.index()]).latency; });

            const synthesis_result probe =
                synthesize(g, lib(), {cp + 5, unbounded_power});
            ASSERT_TRUE(probe.feasible) << probe.reason;
            for (const double scale : {1.0, 0.55}) {
                const double cap = scale * probe.dp.peak_power(lib());
                const synthesis_result r = synthesize(g, lib(), {cp + 5, cap});
                if (r.feasible) {
                    EXPECT_GE(r.stats.merges, 0);
                }
            }
        }
    }
}

/// Table 1's modules with add/sub/comp served by the ALU alone: every
/// ALU op has one standalone area, so all ALU pairs and joins share one
/// saving level and the frontier's order inside that level decides
/// every pick.
const module_library& single_area_lib()
{
    static const module_library l = [] {
        module_library m("single_area");
        m.add(make_module("ALU", {op_kind::add, op_kind::sub, op_kind::comp}, 97, 1, 2.5));
        m.add(make_module("mult_ser", {op_kind::mult}, 103, 4, 2.7));
        m.add(make_module("input", {op_kind::input}, 16, 1, 0.2));
        m.add(make_module("output", {op_kind::output}, 16, 1, 1.7));
        return m;
    }();
    return l;
}

TEST(kernels, cross_check_stresses_frontier_order_on_single_area_dags)
{
    // ALU-only random DAGs: one level of over a thousand equal-saving
    // pairs.  cross_check re-runs the reference enumeration (arena
    // detached) after every pick of the frontier (arena attached),
    // locked from the start and not, and under caps tight enough that
    // rejected decisions land on the blacklist the frontier must skip.
    const knob_guard guard;
    const module_library& alu = single_area_lib();
    int blacklisted = 0;
    for (const std::uint64_t seed : {7ull, 11ull}) {
        random_dag_params params;
        params.operations = 60;
        params.inputs = 5;
        params.layers = 10;
        params.mult_fraction = 0.0;
        params.comp_fraction = 0.2;
        const graph g = random_dag(params, seed);
        for (const double cap : {20.25, 10.1, 7.6}) {
            const pasap_result lo = pasap(g, alu, fastest_assignment(g, alu, cap), cap);
            ASSERT_TRUE(lo.feasible) << lo.reason;
            const synthesis_constraints c{lo.sched.latency(alu) + 2, cap};
            for (const int variant : {0, 1, 2}) {
                synthesis_options o;
                o.try_both_prospects = false;
                o.lock_from_start = variant == 1;
                o.enable_backtrack_lock = variant != 2;
                kernel_knobs() = kernel_tuning{};
                kernel_knobs().cross_check = true;
                const synthesis_result r = synthesize(g, alu, c, o);
                ASSERT_TRUE(r.feasible) << r.reason;
                // Only the rejection that triggers the backtrack lock
                // skips the blacklist.
                const bool lock_by_rejection =
                    o.enable_backtrack_lock && !o.lock_from_start && r.stats.locked;
                blacklisted += r.stats.rejected - (lock_by_rejection ? 1 : 0);
            }
        }
    }
    EXPECT_GT(blacklisted, 0) << "no pick ran with a non-empty blacklist";
}

/// The reference pick: enumerate_candidates() with the arena detached,
/// minus negative and blacklisted entries, then best_candidate().
std::optional<merge_candidate> reference_pick(compat_inputs in,
                                              const std::unordered_set<std::uint64_t>& blacklist)
{
    in.arena = nullptr;
    std::vector<merge_candidate> cands = enumerate_candidates(in);
    std::erase_if(cands, [&](const merge_candidate& c) {
        return c.saving < 0.0 || blacklist.count(c.packed_key()) > 0;
    });
    const int bi = best_candidate(cands);
    if (bi < 0) return std::nullopt;
    return cands[static_cast<std::size_t>(bi)];
}

TEST(kernels, frontier_pick_matches_reference_on_a_hand_built_state)
{
    // Independent ALU ops a < b < c beside e, committed at cycle 5 on
    // instance 0.  One standalone area, so every ALU pair and every
    // join onto instance 0 ties on saving 97 - mux.  Windows: a [5, 5],
    // b [1, 3], c [6, 7].
    //   * The top-bound pair (a, b) times only as (b, a), and that exact
    //     key loses to the later bound (a, c), which times in order.
    //   * Joins go first on the tie: (a, 0) collides with e, (b, 0)
    //     times and is the pick while no join is blacklisted.
    const module_library& alu = single_area_lib();
    graph_builder bld("hand");
    const node_id i0 = bld.input("i0");
    const node_id i1 = bld.input("i1");
    const node_id a = bld.add("a", i0, i1);
    const node_id b = bld.sub("b", i0, i1);
    const node_id c = bld.add("c", i0, i1);
    const node_id e = bld.add("e", i0, i1);
    for (const node_id v : {a, b, c, e}) bld.output("o_" + std::to_string(v.value()), v);
    const graph g = bld.build();
    const int n = g.node_count();
    const module_id alu_m(0), in_m(2), out_m(3);

    time_windows w;
    w.feasible = true;
    w.s_min.assign(static_cast<std::size_t>(n), 9); // outputs
    w.s_max.assign(static_cast<std::size_t>(n), 9);
    module_assignment assignment(static_cast<std::size_t>(n), out_m);
    for (const node_id v : {i0, i1}) {
        w.s_min[v.index()] = w.s_max[v.index()] = 0;
        assignment[v.index()] = in_m;
    }
    const std::vector<std::pair<node_id, std::pair<int, int>>> alu_windows{
        {a, {5, 5}}, {b, {1, 3}}, {c, {6, 7}}, {e, {5, 5}}};
    for (const auto& [v, win] : alu_windows) {
        w.s_min[v.index()] = win.first;
        w.s_max[v.index()] = win.second;
        assignment[v.index()] = alu_m;
    }
    std::vector<int> fixed(static_cast<std::size_t>(n), -1);
    std::vector<char> committed(static_cast<std::size_t>(n), 0);
    fixed[e.index()] = 5;
    committed[e.index()] = 1;
    const std::vector<fu_instance> instances{{0, alu_m, {e}}};
    const double cap = 5.0;
    power_tracker power(cap);
    power.reserve(5, 1, 2.5);
    const reachability reach(g);
    const cost_model costs;

    compat_inputs in;
    in.g = &g;
    in.lib = &alu;
    in.costs = &costs;
    in.reach = &reach;
    in.max_power = cap;
    in.windows = &w;
    in.fixed = &fixed;
    in.committed = &committed;
    in.instances = &instances;
    in.committed_power = &power;
    in.assignment = &assignment;

    // The scenario holds: (a, b) times reversed, (a, c) in order.
    EXPECT_EQ(score_pair(in, a, b, alu_m).cand.a, b);
    EXPECT_EQ(score_pair(in, a, c, alu_m).cand.a, a);

    const merge_candidate join_b = score_join(in, b, instances[0], {{5, 6}}).cand;
    const merge_candidate join_c = score_join(in, c, instances[0], {{5, 6}}).cand;
    const merge_candidate pair_ac = score_pair(in, a, c, alu_m).cand;
    const struct {
        std::unordered_set<std::uint64_t> blacklist;
        std::string expected;
    } cases[] = {
        {{}, join_b.key()},
        {{join_b.packed_key(), join_c.packed_key()}, pair_ac.key()},
        {{join_b.packed_key(), join_c.packed_key(), pair_ac.packed_key()},
         score_pair(in, a, b, alu_m).cand.key()},
    };
    synth_arena arena;
    arena.build(g, alu);
    arena.sync(in);
    for (const bool attached : {false, true}) {
        in.arena = attached ? &arena : nullptr;
        for (const auto& tc : cases) {
            candidate_store store;
            store.rebuild(in);
            const std::optional<merge_candidate> got = store.best(tc.blacklist);
            const std::optional<merge_candidate> ref = reference_pick(in, tc.blacklist);
            ASSERT_TRUE(got.has_value() && ref.has_value());
            EXPECT_EQ(ref->key(), tc.expected) << "arena " << attached;
            EXPECT_EQ(got->key(), ref->key()) << "arena " << attached;
            EXPECT_EQ(got->t_a, ref->t_a);
            EXPECT_EQ(got->t_b, ref->t_b);
            EXPECT_EQ(got->saving, ref->saving);
        }
    }
}

TEST(kernels, eight_thread_batch_identical_across_knobs)
{
    const graph g = make_hal();
    const flow f = flow::on(g).with_library(lib()).latency(17);
    std::vector<synthesis_constraints> grid;
    for (const double cap : f.power_grid(16)) grid.push_back({17, cap});

    const knob_guard guard;
    kernel_knobs() = all_reference();
    const std::vector<flow_report> reference = run_each(f, grid);

    // Optimised kernels: the uncached sequential run, then cached
    // sessions at 1 and 8 workers.
    kernel_knobs() = kernel_tuning{};
    const auto expect_reference = [&](const std::vector<flow_report>& reports,
                                      const char* what) {
        ASSERT_EQ(reports.size(), reference.size()) << what;
        for (std::size_t i = 0; i < reports.size(); ++i)
            EXPECT_EQ(reports[i].to_string(), reference[i].to_string())
                << what << ", point " << i;
    };
    expect_reference(run_each(f, grid), "uncached");
    expect_reference(explore_all(f, grid, 1), "1 thread");
    expect_reference(explore_all(f, grid, 8), "8 threads");
}

TEST(kernels, two_step_strategy_identical_across_knobs)
{
    const graph g = make_cosine();
    const knob_guard guard;
    std::vector<std::string> outputs;
    for (const bool optimised : {false, true}) {
        kernel_knobs() = optimised ? kernel_tuning{} : all_reference();
        outputs.push_back(flow::on(g)
                              .with_library(lib())
                              .latency(15)
                              .power_cap(20.0)
                              .synthesizer("two_step")
                              .run()
                              .to_string());
    }
    EXPECT_EQ(outputs[0], outputs[1]);
}

} // namespace
} // namespace phls
