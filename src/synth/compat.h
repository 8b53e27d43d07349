// Power-aware time-extended compatibility graph (the paper's V1).
//
// Following Jou/Kuang/Chen's integrated formulation, a synthesis decision
// is either
//   * pair    — two unbound operations share one *new* FU instance of a
//               common module type, or
//   * join    — an unbound operation joins an already allocated instance.
//
// Two operations are compatible w.r.t. a module type m when m implements
// both kinds under the power cap AND their power-feasible windows (from
// pasap/palap — this is the paper's enhancement of V1) admit sequential,
// dependency-consistent, power-feasible execution.  Each candidate
// carries concrete start times and the estimated area saving; the greedy
// partitioner (clique.h) picks the best one.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/analysis.h"
#include "library/cost_model.h"
#include "power/tracker.h"
#include "sched/mobility.h"
#include "synth/datapath.h"

namespace phls {

class synth_arena;

/// Field widths of the packed candidate identity used by the merge
/// loop's blacklist: [pair-bit | a | b-or-instance | module].  run_clique_partitioning
/// rejects problems that do not fit these widths, so packed keys never
/// collide silently.
inline constexpr int packed_node_bits = 24;
inline constexpr int packed_module_bits = 15;

/// Packs one candidate identity.  `second` is the b node for pairs and
/// the instance index for joins.
constexpr std::uint64_t pack_candidate_key(bool is_pair, int a, int second, int module)
{
    constexpr std::uint64_t node_mask = (1ull << packed_node_bits) - 1;
    constexpr std::uint64_t module_mask = (1ull << packed_module_bits) - 1;
    return (static_cast<std::uint64_t>(is_pair ? 1 : 0) << 63) |
           ((static_cast<std::uint64_t>(a) & node_mask)
            << (packed_node_bits + packed_module_bits)) |
           ((static_cast<std::uint64_t>(second) & node_mask) << packed_module_bits) |
           (static_cast<std::uint64_t>(module) & module_mask);
}

/// One synthesis decision in the compatibility graph.
struct merge_candidate {
    enum class merge_type { pair, join };

    merge_type type = merge_type::pair;
    node_id a;          ///< first operation (always set)
    node_id b;          ///< second operation (pair only)
    int instance = -1;  ///< target instance (join only)
    module_id module;   ///< module type the ops will execute on
    double saving = 0.0; ///< estimated area saved by this decision
    int t_a = -1;       ///< committed start time for a
    int t_b = -1;       ///< committed start time for b (pair only)

    /// Stable identity, human-readable (used by debug logging).
    std::string key() const;

    /// Stable identity packed into one integer (pack_candidate_key over
    /// the dependency-ordered (a, b) / (a, instance) fields).
    std::uint64_t packed_key() const;
};

/// State the enumeration works from (owned by the partitioner).
struct compat_inputs {
    const graph* g = nullptr;
    const module_library* lib = nullptr;
    const cost_model* costs = nullptr;
    const reachability* reach = nullptr;
    double max_power = unbounded_power;
    const time_windows* windows = nullptr;   ///< current pasap/palap windows
    const std::vector<int>* fixed = nullptr; ///< committed/locked start times (-1 = free)
    const std::vector<char>* committed = nullptr; ///< per node: bound to an instance
    const std::vector<fu_instance>* instances = nullptr;
    const power_tracker* committed_power = nullptr; ///< reservations of committed ops
    const module_assignment* assignment = nullptr;  ///< current per-node modules
    bool locked = false; ///< all free ops pinned to their pasap times
    /// Optional struct-of-arrays fast path, the candidate frontier's:
    /// when set, clamp_by_neighbors and standalone_area answer from the
    /// arena's O(1) per-node caches instead of walking the graph.  The
    /// owner must arena->sync() after every scheduling-state change;
    /// results are byte-identical either way.
    const synth_arena* arena = nullptr;
};

/// Standalone area of one operation: the cheapest module for its kind
/// that is power-feasible *and* slow enough to still fit the operation's
/// window (latency <= prospect delay + mobility).  A critical
/// multiplication cannot fall back to the serial multiplier, so its
/// realistic standalone cost is the parallel one -- without this the
/// greedy under-values sharing expensive fast units.
double standalone_area(const compat_inputs& in, node_id v);

/// Mux-penalty estimate for adding one more operation to an instance of
/// module `m`: one extra source per data port.
double mux_penalty(const fu_module& m, const cost_model& costs);

/// Busy intervals [start, end) of the operations bound to `inst`, sorted.
/// enumerate_candidates builds them once per instance per call, the
/// candidate frontier once per instance it times a join onto.
std::vector<std::pair<int, int>> busy_intervals(const compat_inputs& in,
                                                const fu_instance& inst);

/// One scored decision.
struct candidate_score {
    bool ok = false; ///< a timed candidate exists (saving may still be < 0)
    merge_candidate cand;
};

/// Scores the pair decision (a, b, module) exactly as enumerate_candidates
/// would (a must be the smaller node id, matching enumeration order).
candidate_score score_pair(const compat_inputs& in, node_id a, node_id b, module_id m);

/// Scores joining `a` onto `inst`; `busy` must equal
/// busy_intervals(in, inst).
candidate_score score_join(const compat_inputs& in, node_id a, const fu_instance& inst,
                           const std::vector<std::pair<int, int>>& busy);

/// Enumerates all currently valid decisions, each with concrete times and
/// saving.  Deterministic order.
std::vector<merge_candidate> enumerate_candidates(const compat_inputs& in);

/// Picks the best candidate: max saving, then joins before pairs, then
/// smaller operation ids.  Returns index into `candidates`, or -1 if empty.
int best_candidate(const std::vector<merge_candidate>& candidates);

} // namespace phls
