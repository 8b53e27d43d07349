// Struct-of-arrays scoring arena for the merge loop's hot path: the
// candidate frontier always scores on it.
//
// Candidate scoring (synth/compat.h) reads the same per-node facts over
// and over: the dependency bounds clamp_by_neighbors() folds from a
// node's neighbours and the standalone area of each operation.  The
// reference path re-derives both per combo through graph adjacency
// vectors and module-library lookups -- O(degree) pointer chases and an
// O(|lib|) module scan per scored candidate.  The arena flattens them
// into contiguous arrays indexed by the dense node id, refreshed once
// per scheduling-state change by sync():
//
//   * CSR adjacency (one offsets array + one flat neighbour array per
//     direction), built once per partitioning run;
//   * pred_bound[v]  = max over preds p of (earliest(p) + delay(p)) --
//     the lo side of clamp_by_neighbors, which does not depend on the
//     candidate module, so one cached int replaces the pred walk;
//   * succ_latest[v] = min over succs s of latest(s) -- the hi side is
//     succ_latest[v] - d for candidate delay d (integer min commutes
//     with the constant subtraction, so the fold is exact);
//   * standalone[v]  = standalone_area(v), the same min over the same
//     module set, cached per node instead of recomputed per combo (the
//     candidate frontier groups the free ops by it before every pick).
//
// Everything the arena serves is a value the reference path computes
// from identical inputs with identical arithmetic, so scoring through
// the arena is byte-identical -- tests assert it across the knob matrix
// and via kernel_tuning::cross_check.
#pragma once

#include <vector>

#include "synth/compat.h"

namespace phls {

/// Flattened per-node scoring state; owned by run_clique_partitioning,
/// attached to compat_inputs::arena.
class synth_arena {
public:
    /// Captures the static structure: CSR adjacency, kinds, per-module
    /// latencies and per-kind feasibility lists.  Call once per run.
    void build(const graph& g, const module_library& lib);

    /// Refreshes every state-derived array (dependency bounds,
    /// standalone areas) from the current scheduling state.
    /// O(V + E + V * |lib per kind|); call after any change to fixed /
    /// windows / assignment -- in the merge loop that is before every
    /// candidate_store rebuild.
    void sync(const compat_inputs& in);

    /// max over preds p of (earliest(p) + delay(p)); INT_MIN when none.
    int pred_bound(node_id v) const { return pred_bound_[v.index()]; }

    /// min over succs s of latest(s); INT_MAX when none.
    int succ_latest(node_id v) const { return succ_latest_[v.index()]; }

    /// Cached standalone_area(in, v) of the last sync.
    double standalone(node_id v) const { return standalone_[v.index()]; }

private:
    int n_ = 0;
    // CSR adjacency: neighbours of v are adj[off[v] .. off[v + 1]).
    std::vector<int> pred_off_, pred_adj_;
    std::vector<int> succ_off_, succ_adj_;
    std::vector<int> kind_;        ///< op_kind_index per node
    std::vector<int> mod_latency_; ///< latency per module id
    std::vector<double> mod_area_; ///< area per module id (standalone fallback)
    /// Supporting modules per kind as (latency, area), screened by the
    /// power cap at sync time (the cap is constant within a run, so the
    /// screen rebuild is a one-off).
    struct mod_fit {
        int latency;
        double area;
        double power;
    };
    std::vector<std::vector<mod_fit>> support_;  ///< per kind, all supporting
    std::vector<std::vector<mod_fit>> feasible_; ///< per kind, power-screened
    double screened_cap_ = 0.0;
    bool screened_ = false;

    // State-derived, refreshed by sync().
    std::vector<int> earliest_, latest_, delay_;
    std::vector<int> pred_bound_, succ_latest_;
    std::vector<double> standalone_;
};

} // namespace phls
