// Shared sub-results for batch design-space exploration.
//
// A (T, Pmax) sweep evaluates many constraint points over ONE graph and
// ONE module library, yet parts of every evaluation depend only on that
// (graph, library) pair.  explore_cache holds three kinds of state and
// serves them to every sweep point and worker thread; every
// dse::session builds one for its problem, and callers can share a
// cache across several flows with flow::reuse():
//
//   * graph invariants -- the transitive reachability relation behind
//     the compatibility graph, the per-kind node buckets, and the
//     prospect and fastest-assignment tables (one per admissible-module
//     bucket of the power cap);
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
//     stored design, renamed for its own cap.  A dense Pmax sweep then
//     costs one synthesis per span instead of one per point.  Held in
//     memory only, LRU-bounded like the full reports.
//
// The pasap/palap windows are not memoised: every synthesis computes
// its initial and per-merge windows itself, with or without a cache.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdfg/analysis.h"
#include "flow/status.h"
#include "support/errors.h"
#include "synth/prospect.h"
#include "synth/synthesizer.h"

namespace phls {

class byte_reader;
class byte_writer;
struct flow_report;

/// Thrown by explore_cache::load/merge/merge_files when a cache file
/// cannot be used.  Carries the offending path and a machine-readable
/// failure kind, so callers (and tests) can distinguish a missing file
/// (the normal first cold run) from a genuinely damaged one.
class cache_file_error : public error {
public:
    /// Why the file was rejected.
    enum class failure {
        missing,          ///< the file does not exist / cannot be opened
        truncated,        ///< shorter than its own framing declares
        corrupt,          ///< bad magic, failed checksum or trailing bytes
        version_mismatch, ///< written by an incompatible format version
        problem_mismatch, ///< saved for a different (graph, library)
        io,               ///< the file cannot be written/renamed
    };

    cache_file_error(failure kind, std::string path, const std::string& detail);

    /// The machine-readable failure class.
    failure kind() const { return kind_; }
    /// The file the failure is about.
    const std::string& path() const { return path_; }
    /// Short stable name of a failure kind ("missing", "corrupt", ...).
    static const char* kind_name(failure kind);

private:
    failure kind_;
    std::string path_;
};

/// The metric projection of one memoised flow_report: everything a sweep
/// table, Pareto front or Figure-2 envelope reads — status, achieved
/// (peak, area, latency) and battery lifetime — without the datapath,
/// netlist or heuristic counters.  This is what remains of a report-memo
/// entry after LRU eviction, and what explore_cache::save persists, so
/// evicted and warm-started points still answer metric queries without a
/// resynthesis.  dse::session turns these back into metric-only
/// flow_reports; callers that need the design itself recompute.
struct metric_record {
    status st;                         ///< outcome of the memoised run
    std::string strategy;              ///< synthesis strategy used
    synthesis_constraints constraints{0, unbounded_power}; ///< the (T, Pmax) point
    bool has_design = false;           ///< the run produced a design
    bool optimal = false;              ///< design proven minimal-area
    std::string note;                  ///< strategy remark
    double area = 0.0;                 ///< achieved total area
    double peak = 0.0;                 ///< achieved peak per-cycle power
    int latency = 0;                   ///< achieved latency, cycles
    bool has_lifetime = false;         ///< the lifetime stage ran
    double lifetime_seconds = 0.0;     ///< battery lifetime of the design
    double battery_alpha = 0.0;        ///< battery capacity used by the model
};

/// A metric record turned back into a (metric-only) flow_report: status
/// and achieved metrics are exact, the datapath/netlist/stats are empty.
/// This is the shape dse::session serves warm points in and the shape
/// the serve layer streams over the wire.
flow_report metric_report(const metric_record& m);

/// The metric projection of a finished report — the inverse direction:
/// exactly the fields a metric_record (and therefore a cache file or a
/// wire report frame) carries.  metric_report(metric_of(r)) preserves
/// status and every achieved metric of `r`.
metric_record metric_of(const flow_report& r);

/// Appends `m` in the one metric-record layout that cache-file records
/// and wire report frames share (support/codec.h fields).
void put_metric_record(byte_writer& w, const metric_record& m);

/// Reads one record put_metric_record() wrote.  @throws decode_error on
/// truncated bytes, an unknown status code or a boolean field that is
/// neither 0 nor 1.
metric_record get_metric_record(byte_reader& r);

/// One checksummed binary file format.  A file is a header -- the magic
/// with a u64 length prefix, the i64 version and the i64 body length --
/// then the body and the u64 FNV-1a checksum of the body, every field
/// fixed-width little-endian (support/codec.h).  The header is outside
/// the checksum, so a torn tail reads as `truncated` and a flipped byte
/// as `corrupt`.  Cache files and sweep manifests are the two formats;
/// the words below go into their messages and fault-site names.
struct checksummed_format {
    const char* magic;     ///< identifies the format
    std::int64_t version;  ///< the only version this build reads
    const char* sites;     ///< fault-site prefix ("cache": cache.save.tear, ...)
    const char* noun;      ///< the file, as "cannot open" names it
    const char* header;    ///< its header, as "shorter than the" names it
    const char* foreign;   ///< the message for a wrong magic
    const char* temporary; ///< the temporary file, as the I/O messages name it
};

/// Atomically writes `body` framed as `format` to `path`: the bytes go
/// to `path + ".tmp"` in the same directory, then rename() -- atomic on
/// POSIX -- replaces `path`, so a reader (or a crash) sees the old
/// complete file or the new one, never a torn one.  Fault sites, after
/// the format's prefix: `.save.corrupt` flips a body byte after
/// checksumming, `.save.tear` crashes halfway through the temporary
/// file.
/// @throws cache_file_error (kind io) when the file cannot be written.
void write_checksummed_file(const std::string& path, const checksummed_format& format,
                            std::string_view body);

/// Reads `path` as `format`, validates its framing and hands the body
/// to `decode`, which must consume all of it.  Fault site, after the
/// format's prefix: `.load.corrupt` flips one read byte.  @throws
/// cache_file_error of kind missing, truncated, version_mismatch or
/// corrupt (bad magic, negative body length, bytes after the checksum,
/// a failed checksum, or a body `decode` throws phls::error on).
void read_checksummed_file(const std::string& path, const checksummed_format& format,
                           const std::function<void(byte_reader&)>& decode);

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

/// Memoised per-(graph, library) invariants of design-space exploration.
///
/// The cache owns copies of the graph and library it was built for, so it
/// outlives the flows that share it.  All lookups are thread-safe and all
/// returned values are deterministic pure functions of the constructor
/// inputs and the lookup key — a batch run with a cache is byte-identical
/// to one without.  Failed prospect selections are recomputed rather than
/// memoised because their diagnostic text embeds the exact power cap.
///
/// @see flow::reuse(), flow::build_cache(), dse::session
class explore_cache {
public:
    /// Builds the cache for one design problem: validates `g`, checks
    /// `lib` covers it, and computes the reachability relation eagerly.
    /// @throws phls::error when the graph is malformed or uncovered.
    explore_cache(const graph& g, const module_library& lib);
    ~explore_cache();

    /// The graph this cache was built for (a private copy).
    const graph& design() const { return g_; }
    /// The library this cache was built for (a private copy).
    const module_library& library() const { return lib_; }

    /// True iff (g, lib) serialise identically to the constructor inputs,
    /// i.e. every cached value is valid for this problem.  flow checks
    /// this once per run() before trusting a shared cache.
    bool compatible(const graph& g, const module_library& lib) const;

    /// The transitive reachability relation of the graph (computed once
    /// at construction; every call counts as a cache hit).
    const reachability& reach() const
    {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return reach_;
    }

    /// Nodes of the design of kind `k`, ascending id -- the
    /// graph::nodes_of_kind() buckets materialised once at construction
    /// (an invariant like reach()), so per-point code reads a stable
    /// vector instead of allocating a fresh one per call.
    const std::vector<node_id>& nodes_of_kind(op_kind k) const
    {
        return kind_buckets_[static_cast<std::size_t>(op_kind_index(k))];
    }

    /// Prospect module table under `policy` and power cap `cap` —
    /// identical to make_prospect() on the cached problem.  Successful
    /// tables are memoised per (policy, admissible-module set); the set
    /// only changes when `cap` crosses a module's per-cycle power, so a
    /// dense Figure-2 grid resolves to a handful of distinct tables.
    prospect_result prospect(prospect_policy policy, double cap) const;

    /// fastest_assignment() on the cached problem, memoised the same way.
    module_assignment fastest(double cap) const;

    /// The report memo: whole-report memoisation for exactly-duplicate
    /// constraint points.  `fingerprint` must encode the complete flow
    /// configuration and the (T, Pmax) point (flow::fingerprint builds
    /// it); the stored report is a deterministic pure function of that
    /// fingerprint on the cached problem.  Returns true and fills `*out` on a full-report
    /// hit (entries evicted down to metric records do not answer here —
    /// see metric_lookup); a hit refreshes the entry's LRU position.
    bool report_lookup(const std::string& fingerprint, flow_report* out) const;

    /// Stores `report` under `fingerprint` together with its metric
    /// projection.  The first writer of a key counts the miss; a
    /// concurrent loser of the insert race counts a hit instead, so
    /// report_hits + report_misses always equals the number of lookups
    /// that found or stored a full report — flow::run_point's memoised
    /// calls plus dse::session's scan-time probes.  (flow::run_point
    /// skips the store for status `internal` — an escaped, possibly transient exception must not
    /// become permanent for every duplicate point.)  When a report
    /// capacity is configured and the store exceeds it, the
    /// least-recently-used full report is evicted down to its metric
    /// record, so the number of held reports never passes the bound.
    void report_store(const std::string& fingerprint, const flow_report& report) const;

    /// Metric-level lookup: serves the (status, peak, area, latency,
    /// lifetime) projection of a memoised point from a live full report,
    /// an evicted entry, or a record loaded from a cache file.  Returns
    /// true and fills `*out` on a hit (counted in metric_hits; the full
    /// report's LRU position is not refreshed — metric readers do not
    /// keep heavy entries alive).
    bool metric_lookup(const std::string& fingerprint, metric_record* out) const;

    /// The interval table: a stored greedy report whose span holds
    /// `cap`'s limit (cap + cap_test::tolerance), under `key` -- the
    /// flow fingerprint without the cap (the latency included) -- and
    /// `cap`'s admissible-module bucket.  Returns true and fills `*out`
    /// with the report exactly as stored (its own point and design
    /// name; the caller re-stamps them) and counts interval_served.  A
    /// hit refreshes the entry's LRU position.  `cap` must be finite.
    bool interval_lookup(const std::string& key, double cap, flow_report* out) const;

    /// Stores the feasible report computed at `cap` with the span its
    /// run recorded.  Two spans under one key and bucket are disjoint or
    /// identical, so a store whose limit an entry already holds is a
    /// racing duplicate: it stores nothing and counts interval_served,
    /// as a lookup after the winner's store would have.  Beyond the
    /// report capacity the least-recently-used entry is dropped whole.
    void interval_store(const std::string& key, double cap, const cap_interval& span,
                        const flow_report& report) const;

    /// Bounds the number of *full* reports the report memo holds, and
    /// the number of designs the interval table holds; 0 (the default)
    /// means unbounded.  Beyond the bound the least-recently-used report
    /// is dropped to its metric record, which is retained (metric
    /// records are ~100 bytes, so a 10^5-point plane costs megabytes,
    /// not the gigabytes of full datapaths), and the least-recently-used
    /// interval design is dropped.  Shrinking the capacity evicts
    /// immediately.  Not thread-safe: call before sharing the cache.
    void set_report_capacity(std::size_t max_full_reports);
    /// The configured full-report bound (0 = unbounded).
    std::size_t report_capacity() const;
    /// Full reports currently held by the report memo.
    std::size_t report_full_size() const;
    /// Designs currently held by the interval table.
    std::size_t interval_size() const;
    /// Metric-only records currently held (evicted or loaded entries).
    std::size_t report_metric_size() const;

    /// Visits the metric projection of every report-memo entry (full or
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
    /// *fresh* cache reports (a load into a non-empty cache counts only
    /// new keys).
    /// The write is atomic: the bytes go to a temporary file in the same
    /// directory which is then renamed over `path`, so a killed process
    /// can never leave a torn file that load() rejects — readers see the
    /// old complete file or the new complete file, nothing in between.
    /// @throws cache_file_error (kind io) when the file cannot be
    /// written or renamed.
    std::size_t save(const std::string& path) const;

    /// Warm-starts the report memo from a file written by save().
    /// Returns the number of records loaded.  @throws cache_file_error
    /// carrying the path and the failure kind when the file is missing,
    /// truncated, corrupt (bad magic, checksum mismatch, trailing bytes
    /// or a record count the body cannot hold), of another format
    /// version (files from before v4, v3 included, fail with
    /// version_mismatch and must be deleted), or was saved for a
    /// different (graph, library) — a bad cache file never silently
    /// degrades to wrong answers.  Not thread-safe: call before sharing
    /// the cache.
    std::size_t load(const std::string& path);

    /// Unions the metric records of a save()d file into this (possibly
    /// warm) cache: keys already present keep their in-memory value (a
    /// live full report is strictly more informative than a loaded
    /// metric record), novel keys are inserted.  Returns the number of
    /// records that were new.  This is how per-shard caches combine into
    /// one warm cache.  @throws cache_file_error like load().
    /// Not thread-safe: call between explorations, not during one.
    std::size_t merge(const std::string& path);

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
    ///   * hits/misses — the shared per-(graph, lib) invariants:
    ///     reach/prospect/fastest.  `misses` starts at 1 for the eager
    ///     reachability build.
    ///   * committed_hits/committed_misses — always 0 (windows are not
    ///     memoised); kept for the benchmark harness, which still reads
    ///     them.  The wire's done frame does not carry them.
    ///   * report_hits/report_misses — report-memo whole-report lookups.
    ///   * metric_hits — metric_lookup() successes (served from a full
    ///     report, an evicted entry or a loaded record; misses fall
    ///     through to a real computation, which the other counters see).
    ///   * interval_served — points the interval table served, plus
    ///     racing duplicate stores (see interval_store).
    ///
    /// Counting is exact even under concurrent misses of one key: the
    /// thread whose insert wins counts the miss, every racing loser
    /// counts a hit, so for each table hits + misses equals the number
    /// of lookups and misses equals the number of stored entries (plus,
    /// for the invariants, recomputed prospect failures).  Likewise,
    /// with nothing evicted, interval_served + interval_size() is the
    /// number of feasible greedy points the table saw, whatever the
    /// thread count.
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
        return {.hits = hits_.load(std::memory_order_relaxed),
                .misses = misses_.load(std::memory_order_relaxed),
                .report_hits = report_hits_.load(std::memory_order_relaxed),
                .report_misses = report_misses_.load(std::memory_order_relaxed),
                .metric_hits = metric_hits_.load(std::memory_order_relaxed),
                .interval_served = interval_served_.load(std::memory_order_relaxed)};
    }

private:
    /// Index of the admissible-module set for `cap`: the number of
    /// distinct per-cycle power levels <= cap.  Module selection depends
    /// on `cap` only through this value.
    int bucket(double cap) const;

    /// The interval-table key of `key` at `cap`: `key` plus bucket(cap).
    std::string interval_key(const std::string& key, double cap) const;

    graph g_;
    module_library lib_;
    reachability reach_;
    std::vector<std::vector<node_id>> kind_buckets_; ///< nodes per op kind
    std::string graph_text_;
    std::string lib_text_;
    std::vector<double> power_levels_; ///< sorted distinct module powers

    mutable std::mutex mutex_;
    mutable std::map<std::pair<int, int>, prospect_result> prospects_;
    mutable std::map<int, module_assignment> fastest_;
    /// The report memo, behind a pimpl so this header does not depend on
    /// flow.h (flow_report is incomplete here).
    struct report_memo;
    mutable std::unique_ptr<report_memo> reports_;
    /// The interval table, behind a pimpl for the same reason.
    struct interval_table;
    mutable std::unique_ptr<interval_table> intervals_;
    mutable std::atomic<long> hits_{0};
    mutable std::atomic<long> misses_{0};
    mutable std::atomic<long> report_hits_{0};
    mutable std::atomic<long> report_misses_{0};
    mutable std::atomic<long> metric_hits_{0};
    mutable std::atomic<long> interval_served_{0};
};

} // namespace phls
