// The per-problem tables of design-space exploration.
//
// A (T, Pmax) sweep evaluates many points over ONE graph and ONE module
// library, and parts of every synthesis depend only on that pair: the
// transitive reachability relation behind the compatibility graph, and
// the prospect and fastest-assignment tables, which depend on the cap
// only through its admissible-module bucket.  problem_tables computes
// each once and serves it to every point and worker thread.
// synthesize(), run_clique_partitioning() and two_step_synthesize()
// take an optional pointer to one; the flow layer's explore_cache
// (flow/explore_cache.h) is one, with the report memo and the interval
// table on top.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/analysis.h"
#include "synth/prospect.h"

namespace phls {

/// Memoised per-(graph, library) invariants of design-space exploration.
///
/// The tables own copies of the graph and library they were built for.
/// All lookups are thread-safe and all returned values are
/// deterministic pure functions of the constructor inputs and the
/// lookup key, so a synthesis with tables is byte-identical to one
/// without.  Failed prospect selections are recomputed rather than
/// memoised because their diagnostic text embeds the exact power cap.
class problem_tables {
public:
    /// Builds the tables for one design problem: validates `g`, checks
    /// `lib` covers it, and computes the reachability relation eagerly.
    /// @throws phls::error when the graph is malformed or uncovered.
    problem_tables(const graph& g, const module_library& lib);

    /// The graph the tables were built for (a private copy).
    const graph& design() const { return g_; }
    /// The library the tables were built for (a private copy).
    const module_library& library() const { return lib_; }
    /// The canonical text of the graph (write_cdfg_string).
    const std::string& graph_text() const { return graph_text_; }
    /// The canonical text of the library (write_library_string).
    const std::string& library_text() const { return lib_text_; }

    /// True iff (g, lib) serialise identically to the constructor inputs,
    /// i.e. every table is valid for this problem.
    bool compatible(const graph& g, const module_library& lib) const;

    /// The transitive reachability relation of the graph (computed once
    /// at construction; every call counts as a hit).
    const reachability& reach() const
    {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return reach_;
    }

    /// Index of the admissible-module set for `cap`: the number of
    /// distinct per-cycle power levels <= cap.  Module selection depends
    /// on `cap` only through this value.
    int bucket(double cap) const;

    /// Prospect module table under `policy` and power cap `cap` —
    /// identical to make_prospect() on this problem.  Successful tables
    /// are memoised per (policy, bucket), so a dense Figure-2 grid
    /// resolves to a handful of distinct tables.
    prospect_result prospect(prospect_policy policy, double cap) const;

    /// fastest_assignment() on this problem, memoised per bucket.
    module_assignment fastest(double cap) const;

    /// Lookups served from a stored table (reach() always is).
    ///
    /// Counting is exact even under concurrent misses of one key: the
    /// thread whose insert wins counts the miss, every racing loser
    /// counts a hit, so hits() + misses() is the number of lookups.
    long hits() const { return hits_.load(std::memory_order_relaxed); }
    /// Tables computed: 1 for the eager reachability build, plus one per
    /// stored table and one per recomputed prospect failure.
    long misses() const { return misses_.load(std::memory_order_relaxed); }

private:
    /// `table[key]`, computed by `compute` outside the lock on a miss and
    /// stored when `keep` accepts it.
    template <class Key, class Value, class Compute, class Keep>
    Value memoised(std::map<Key, Value>& table, const Key& key, Compute compute,
                   Keep keep) const;

    graph g_;
    module_library lib_;
    reachability reach_;
    std::string graph_text_;
    std::string lib_text_;
    std::vector<double> power_levels_; ///< sorted distinct module powers

    mutable std::mutex mutex_;
    mutable std::map<std::pair<int, int>, prospect_result> prospects_;
    mutable std::map<int, module_assignment> fastest_;
    mutable std::atomic<long> hits_{0};
    mutable std::atomic<long> misses_{1}; ///< the eager reachability build
};

} // namespace phls
