// The 10k-operation workload of kernels.ten_k_op_dag_identical_across_threads
// and the digest of its seed-era reference render.
//
// The reference kernels need about 100 s and 5 GB on this DAG, so the
// test compares the optimised render against the digest committed here,
// and the ten_k_reference program (tools/ten_k_reference.cpp)
// recomputes the reference render and fails unless its digest matches
// the same constant.  The two halves together check that the optimised
// kernels reproduce the reference byte for byte.  After an intended
// output change, run ten_k_reference and commit the digest it prints.
#pragma once

#include <cstdint>
#include <string>

#include "cdfg/analysis.h"
#include "cdfg/random_dag.h"
#include "library/library.h"
#include "support/kernels.h"
#include "support/strings.h"
#include "synth/synthesizer.h"

namespace phls {

/// Digest of the reference render of ten_k_workload().
inline constexpr const char* ten_k_reference_digest = "0914ce4248933424";

inline const module_library& reference_library()
{
    static const module_library l = table1_library();
    return l;
}

/// Every kernel on its seed-era reference implementation.
inline kernel_tuning all_reference()
{
    kernel_tuning k;
    k.skip_probe = false;
    k.incremental_candidates = false;
    k.undo_log = false;
    k.soa_arena = false;
    k.dense_power = false;
    k.intra_threads = 1;
    return k;
}

/// Canonical rendering of a synthesis result: the full datapath report
/// (instances, binding, times, area) plus every heuristic counter.
inline std::string render(const graph& g, const synthesis_result& r)
{
    std::string out = r.feasible ? "feasible\n" : "infeasible: " + r.reason + '\n';
    if (r.feasible) out += r.dp.report(g, reference_library());
    out += strf("merges=%d pair=%d join=%d rejected=%d recomputes=%d locked=%d "
                "lock_at=%d rebinds=%d fallbacks=%d\n",
                r.stats.merges, r.stats.pair_merges, r.stats.join_merges,
                r.stats.rejected, r.stats.window_recomputes, r.stats.locked ? 1 : 0,
                r.stats.merges_before_lock, r.stats.finalize_rebinds,
                r.stats.finalize_fallbacks);
    return out;
}

/// FNV-1a 64 of `bytes` as 16 lowercase hex digits.
inline std::string render_digest(const std::string& bytes)
{
    return strf("%016llx", static_cast<unsigned long long>(fnv1a(bytes)));
}

/// An attempt-bounded prefix of the merge loop on a 10k-operation ALU
/// DAG (the bench_kernels family's n/12 input ratio), locked from the
/// start, unbounded power.
struct ten_k_workload {
    graph g;
    synthesis_constraints c{1, unbounded_power};
    synthesis_options o;
};

inline ten_k_workload make_ten_k_workload()
{
    random_dag_params params;
    params.operations = 10000;
    params.inputs = 833;
    params.layers = 10;
    params.mult_fraction = 0.0;
    ten_k_workload w{random_dag(params, 777 + 10000), {1, unbounded_power}, {}};
    const module_assignment fast =
        fastest_assignment(w.g, reference_library(), unbounded_power);
    const int cp = critical_path_length(
        w.g, [&](node_id v) { return reference_library().module(fast[v.index()]).latency; });
    w.c = {cp + 4, unbounded_power};
    w.o.lock_from_start = true;
    w.o.try_both_prospects = false;
    w.o.verify_result = false; // a truncated loop may miss the area target
    w.o.max_merge_attempts = 2;
    return w;
}

/// render() of synthesising `w` under `knobs`; restores the knobs.
inline std::string run_ten_k(const ten_k_workload& w, const kernel_tuning& knobs)
{
    const kernel_tuning saved = kernel_knobs();
    kernel_knobs() = knobs;
    const synthesis_result r = synthesize(w.g, reference_library(), w.c, w.o);
    kernel_knobs() = saved;
    return render(w.g, r);
}

} // namespace phls
