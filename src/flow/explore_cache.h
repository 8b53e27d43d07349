// Shared sub-results for batch design-space exploration.
//
// A (T, Pmax) sweep evaluates many constraint points over ONE graph and
// ONE module library.  explore_cache is the synth layer's
// problem_tables (synth/problem_tables.h: reachability and the
// prospect and fastest tables) plus two tables of finished reports and
// one of battery lifetimes, served to every sweep point and worker
// thread; every dse::session builds one for its problem, and callers
// can share a cache across several flows with flow::reuse():
//
//   * the report memo -- whole-flow_report memoisation for exactly-
//     duplicate constraint points, keyed by a fingerprint of the
//     complete flow configuration (strategy, every option, enabled
//     stages) plus the (T, Pmax) point, so distinct configurations never
//     collide.  Dense 2-D grids and repeated CLI sweeps hit it.  Entries
//     can be LRU-evicted down to metric records, and the metric records
//     are what cache files persist;
//   * the interval table -- feasible greedy reports, each kept with the
//     span of caps over which its synthesis's every cap test answers
//     the same (cap_interval, power/tracker.h).  A greedy run reads
//     Pmax only through the admissible-module bucket and those tests,
//     so a later point of the same configuration, latency and bucket
//     whose limit Pmax + tolerance falls in the span would make the
//     same decisions on the same sums: flow::run_point serves it the
//     stored design, renamed for its own cap (restamp_point).  A dense
//     Pmax sweep then costs one synthesis per span instead of one per
//     point.  Held in memory only, LRU-bounded like the full reports;
//   * the lifetime memo -- the battery stage's answer (battery_lifetime)
//     per design power profile, keyed by the profile's canonical bytes
//     plus every lifetime_spec field, so flows with different battery
//     parameters never share an answer.  Many designs draw the same
//     per-cycle profile (hal's 10^4-point plane synthesises 678 designs
//     with 45 distinct profiles), and the Rakhmatov integration is a
//     pure function of the profile and the spec.  Held in memory only,
//     unbounded: one small entry per distinct profile.
//
// The report memo's fingerprints and the interval table's outer keys
// are hashed: every fingerprint of one configuration shares all but its
// last bytes, which an ordered map would compare again at every level
// of its search.  save(), each_metric() and cache files still see the
// records in fingerprint order, because the snapshot they read is
// sorted.
//
// The two report tables share one immutable report per design: a
// synthesised greedy point's memo entry and its span hold the same
// allocation, and the memo entry of every point a span served points at
// the span's report, its own point kept in the entry's metric record.
// So an answered point costs a metric record and a pointer, not a
// datapath.  Cache files are framed by support/checksummed_file.h.
//
// The pasap/palap windows are not memoised: every synthesis computes
// its initial and per-merge windows itself, with or without a cache.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/checksummed_file.h"
#include "synth/problem_tables.h"
#include "synth/synthesizer.h"

namespace phls {

struct flow_report;
struct lifetime_estimate;
struct lifetime_spec;
struct metric_record;
class power_profile;

/// Renames `r`, a report computed at another point of graph `g`, for
/// point `c`: re-stamps `constraints`, `dp.name` (design_name) and, when
/// the report has a netlist, `nl.design_name`, and changes nothing
/// else.  These are the only fields of a greedy report that name its
/// cap, so this is how one design the interval table holds answers for
/// every point of its span.
void restamp_point(flow_report& r, const graph& g, const synthesis_constraints& c);

/// What one cache-file merge did, per input and in total — the
/// `phls cache merge` summary table renders this.
struct cache_merge_stats {
    /// Per-input record counts, in merge order (first occurrence of a
    /// key wins, so later inputs contribute only their novel records).
    struct input {
        std::string path;            ///< the merged file
        std::size_t metrics = 0;     ///< metric records in the file
        std::size_t new_metrics = 0; ///< metric records not seen before
        bool skipped = false;        ///< rejected and skipped (merge_files
                                     ///< with skip_bad; counts are zero)
        std::string skip_reason;     ///< failure kind name when skipped
    };
    std::vector<input> inputs;
    std::size_t metric_total = 0;   ///< metric records in the merged file
    std::size_t skipped_inputs = 0; ///< inputs rejected under skip_bad
};

/// The per-problem tables plus the report memo, the interval table and
/// the lifetime memo of one (graph, library) pair.
///
/// The cache owns copies of the graph and library it was built for, so
/// it outlives the flows that share it.  All lookups are thread-safe,
/// and a batch run with a cache is byte-identical to one without.
///
/// @see flow::reuse(), flow::build_cache(), dse::session
class explore_cache : public problem_tables {
public:
    /// Builds the cache for one design problem (see problem_tables).
    /// @throws phls::error when the graph is malformed or uncovered.
    explore_cache(const graph& g, const module_library& lib);
    ~explore_cache();

    /// The report memo: whole-report memoisation for exactly-duplicate
    /// constraint points.  `fingerprint` must encode the complete flow
    /// configuration and the (T, Pmax) point (flow::fingerprint builds
    /// it); the answered report is a deterministic pure function of
    /// that fingerprint on the cached problem.  Returns true and fills
    /// `*out` on a full-report hit, which counts in report_hits and
    /// refreshes the entry's LRU position.  An entry holds a shared
    /// report and the point it answers for; the report is copied
    /// outside the lock, and one computed at another cap of its span is
    /// re-stamped for that point (restamp_point).  `*out`'s wall_ms is
    /// the stored run's.
    ///
    /// An entry evicted down to its metric record, or loaded from a
    /// cache file, answers only when `metric_only` is non-null: then
    /// `*out` becomes metric_report() of the record, `*metric_only` is
    /// set and metric_hits counts it (the LRU order is untouched).
    /// Otherwise it is a miss, which flow::run_point recomputes.
    bool report_lookup(const std::string& fingerprint, flow_report* out,
                       bool* metric_only = nullptr) const;

    /// Stores `report`, the answer at `point`, under `fingerprint`
    /// together with its metric record at `point`.  The entry shares
    /// `report`: the interval table may hold it too, and it may have
    /// been computed at another cap of its span (report_lookup
    /// re-stamps it).  The first writer of a key counts the miss; a
    /// concurrent loser of the insert race counts a hit instead, so
    /// report_hits + report_misses always equals the number of lookups
    /// that found or stored a full report — flow::run_point's memoised
    /// calls plus dse::session's scan-time probes.  (flow::run_point
    /// skips the store for status `internal` — an escaped, possibly
    /// transient exception must not become permanent for every
    /// duplicate point.)  When a report capacity is configured and the
    /// store exceeds it, the least-recently-used entry is evicted down
    /// to its metric record, so the number of entries holding a report
    /// never passes the bound.
    void report_store(const std::string& fingerprint,
                      std::shared_ptr<const flow_report> report,
                      const synthesis_constraints& point) const;

    /// The interval table: a stored greedy report whose span holds
    /// `cap`'s limit (cap + cap_test::tolerance), under `key` -- the
    /// flow fingerprint without the cap (the latency included) -- and
    /// `cap`'s admissible-module bucket.  Returns true, points `*out`
    /// at the stored report (its own point and design name; the caller
    /// re-stamps a copy with restamp_point) and counts interval_served.
    /// A hit refreshes the entry's LRU position.  `cap` must be finite.
    bool interval_lookup(const std::string& key, double cap,
                         std::shared_ptr<const flow_report>* out) const;

    /// Stores the feasible report computed at `cap` with the span its
    /// run recorded, sharing `report` (flow::run_point hands the same
    /// allocation to report_store).  Two spans under one key and
    /// bucket are disjoint or identical, so a store whose limit an
    /// entry already holds is a racing duplicate: it stores nothing and
    /// counts interval_served, as a lookup after the winner's store
    /// would have.  Beyond the report capacity the least-recently-used
    /// entry is dropped whole.
    void interval_store(const std::string& key, double cap, const cap_interval& span,
                        std::shared_ptr<const flow_report> report) const;

    /// The lifetime memo: battery_lifetime(profile, spec, out),
    /// integrated once per distinct (profile, spec) and bit-equal to a
    /// direct call.  The key is the profile's per-cycle values in the
    /// byte codec's canonical form plus every field of `spec`.  A spec
    /// the battery stage rejects throws as battery_lifetime does, with
    /// `out` filled as far as it got, and stores nothing.
    void lifetime(const power_profile& profile, const lifetime_spec& spec,
                  lifetime_estimate& out) const;
    /// Distinct (profile, spec) pairs the lifetime memo holds.
    std::size_t lifetime_size() const;

    /// Bounds the number of report-memo entries that hold a report, and
    /// the number of designs the interval table holds; 0 (the default)
    /// means unbounded.  Beyond the bound the least-recently-used memo
    /// entry is dropped to its metric record, which is retained (metric
    /// records are ~100 bytes, so a 10^5-point plane costs megabytes,
    /// not the gigabytes of full datapaths), and the least-recently-used
    /// interval design is dropped.  A report either table still holds
    /// outlives its eviction from the other, so at most twice the bound
    /// of designs stay alive.  Shrinking the capacity evicts
    /// immediately.  Not thread-safe: call before sharing the cache.
    void set_report_capacity(std::size_t max_full_reports);
    /// Report-memo entries currently holding a report (shared or not).
    std::size_t report_full_size() const;
    /// Designs currently held by the interval table.
    std::size_t interval_size() const;
    /// Metric-only records currently held (evicted or loaded entries).
    std::size_t report_metric_size() const;

    /// Visits the metric record of every report-memo entry (full or
    /// metric-only) as (fingerprint, record), in canonical fingerprint
    /// order.  The entries are snapshotted first, so the callback may
    /// probe or mutate the cache.  This is how dse::session pretrains
    /// its guided-exploration surrogate from a warm cache.
    void each_metric(
        const std::function<void(const std::string& fingerprint,
                                 const metric_record& record)>& fn) const;

    /// Persists the report memo to `path` as metric records (format v4:
    /// one record per entry, full or metric-only, and nothing else): the
    /// (graph, library) identity, then each fingerprint with its record
    /// (put_metric_record), framed by write_checksummed_file().  Every
    /// field is fixed-width little-endian, so a file written on one host
    /// loads on any other.  Returns the number of records written,
    /// report_full_size() + report_metric_size() — what load() into a
    /// *fresh* cache reports.
    /// The write is atomic: the bytes go to a temporary file in the same
    /// directory which is then renamed over `path`, so a killed process
    /// can never leave a torn file that load() rejects — readers see the
    /// old complete file or the new complete file, nothing in between.
    /// @throws cache_file_error (kind io) when the file cannot be
    /// written or renamed.
    std::size_t save(const std::string& path) const;

    /// Unions the metric records of a save()d file into this (possibly
    /// warm) cache: keys already present keep their in-memory value (a
    /// live full report is strictly more informative than a loaded
    /// metric record), novel keys are inserted.  Returns the number of
    /// records that were new.  This is how a cold run warm-starts and
    /// how per-shard caches combine into one warm cache.
    /// @throws cache_file_error carrying the path and the failure kind
    /// when the file is missing, truncated, corrupt (bad magic, checksum
    /// mismatch, trailing bytes or a record count the body cannot hold),
    /// of another format version (files from before v4, v3 included,
    /// fail with version_mismatch and must be deleted), or was saved for
    /// a different (graph, library) — a bad cache file never silently
    /// degrades to wrong answers.  Not thread-safe: call between
    /// explorations, not during one.
    std::size_t load(const std::string& path);

    /// File-level merge, no cache instance needed: reads every input
    /// (each fully validated like load()), requires them all to be for
    /// the same (graph, library), unions their metric records (first
    /// occurrence of a key wins, inputs processed in order) and
    /// atomically writes the union to `out` in the same format —
    /// loading the merged file behaves like loading every input in
    /// order.  @throws cache_file_error on an unreadable/invalid
    /// input, mismatched problems or an unwritable output; phls::error
    /// when `inputs` is empty.
    ///
    /// With `skip_bad`, an input that fails validation (missing,
    /// truncated, corrupt, wrong version, or saved for a different
    /// problem than the first *good* input) is skipped instead: its
    /// stats entry records `skipped` and the failure kind, and the merge
    /// proceeds with the remaining files — the crash-recovery path for
    /// combining shard caches when one worker died mid-save.  All inputs
    /// bad still throws (there is nothing to merge).
    static cache_merge_stats merge_files(const std::string& out,
                                         const std::vector<std::string>& inputs,
                                         bool skip_bad = false);

    /// Hit/miss counters.
    ///
    ///   * hits/misses — the problem tables (problem_tables::hits(),
    ///     problem_tables::misses()).
    ///   * committed_hits/committed_misses — always 0 (windows are not
    ///     memoised); kept for the benchmark harness, which still reads
    ///     them.  The wire's done frame does not carry them.
    ///   * report_hits/report_misses — report-memo whole-report lookups.
    ///   * metric_hits — entries that answered report_lookup() with
    ///     their metric record only (misses fall through to a real
    ///     computation, which the other counters see).
    ///   * interval_served — points the interval table served, plus
    ///     racing duplicate stores (see interval_store).
    ///
    /// Counting is exact under concurrency: for each table hits +
    /// misses equals the number of lookups and misses equals the number
    /// of stored entries (plus, for the problem tables, recomputed
    /// prospect failures).  Likewise, with nothing evicted,
    /// interval_served + interval_size() is the number of feasible
    /// greedy points the table saw, whatever the thread count.
    struct counters {
        long hits = 0;
        long misses = 0;
        long committed_hits = 0;
        long committed_misses = 0;
        long report_hits = 0;
        long report_misses = 0;
        long metric_hits = 0;
        long interval_served = 0;
    };

    /// Snapshot of the counters; safe to call concurrently with lookups.
    counters stats() const
    {
        return {.hits = hits(),
                .misses = misses(),
                .report_hits = report_hits_.load(std::memory_order_relaxed),
                .report_misses = report_misses_.load(std::memory_order_relaxed),
                .metric_hits = metric_hits_.load(std::memory_order_relaxed),
                .interval_served = interval_served_.load(std::memory_order_relaxed)};
    }

private:
    /// The interval-table key of `key` at `cap`: `key` plus bucket(cap).
    std::string interval_key(const std::string& key, double cap) const;

    /// The report memo, behind a pimpl so this header does not depend on
    /// flow.h (flow_report is incomplete here).
    struct report_memo;
    mutable std::unique_ptr<report_memo> reports_;
    /// The interval table, behind a pimpl for the same reason.
    struct interval_table;
    mutable std::unique_ptr<interval_table> intervals_;
    /// The lifetime memo, behind a pimpl (lifetime_estimate is
    /// incomplete here too).
    struct lifetime_memo;
    mutable std::unique_ptr<lifetime_memo> lifetimes_;
    mutable std::atomic<long> report_hits_{0};
    mutable std::atomic<long> report_misses_{0};
    mutable std::atomic<long> metric_hits_{0};
    mutable std::atomic<long> interval_served_{0};
};

} // namespace phls
