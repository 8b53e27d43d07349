// Exploration sessions: the stateful owner of a design-space sweep.
//
// A dse::session binds a configured flow (the *prototype*: graph,
// library, strategy, options, enabled stages — its own constraint point
// is ignored) to a long-lived explore_cache, and evaluates
// dse::space point sets against it:
//
//   dse::session s(flow::on(g).latency(17), {.memo_limit = 4096});
//   s.load("sweep.phlscache");              // warm-start, if the file exists
//   const dse::explore_summary sum = s.explore(
//       dse::grid({17, 21, 2}, {2.0, 9.0, 40}),
//       {.on_result = ..., .on_front = ...});
//   s.save("sweep.phlscache");              // persist for the next process
//
// explore() is the one way to evaluate many points: it runs them on a
// worker pool against the session's cache and delivers through one
// sink.  The result channel streams each finished report, and the front
// channel streams *envelope deltas* — the points that entered and left
// the incremental Pareto front — instead of re-sending the whole front
// per completion.
//
// The session's cache is bounded (memo_limit full reports, LRU) and
// persistent: save()/load() serialise its metric records, so a repeated
// CLI sweep warm-starts across processes.  Warm-started (and evicted)
// points are served as *metric-only* reports — status and achieved
// (peak, area, latency, lifetime) without the datapath — which is
// everything a sweep table, front or envelope reads.
//
// Reuse across heterogeneous jobs: a session is pinned to ONE design
// problem — the (graph, library, strategies, options, enabled stages)
// of its prototype — because its cache keys sub-results by exactly that
// configuration.  Re-running a space on the same session warm-starts;
// pointing the same session at a *different* problem is a logic error
// (the cached graph invariants would be wrong for the new graph).  When
// a workload mixes problems (e.g. many tasks, each its own CDFG), hold
// one session per problem.  serve::session_pool (src/serve/server.h)
// does that keying for you: acquire(job) canonicalises the job minus
// its space/threads and returns a shared slot, so duplicate problems
// map to one warm session while distinct ones stay isolated — the task
// engine (src/task/candidates.h) and `phls serve` both reuse it.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dse/space.h"
#include "dse/surrogate.h"
#include "flow/explore_cache.h"
#include "flow/flow.h"
#include "flow/pareto_stream.h"

namespace phls::dse {

/// Session-construction knobs.
struct session_options {
    /// Report-memo bound: max *full* reports held (LRU-evicted down to
    /// metric records beyond it), and max designs the cache's interval
    /// table holds (LRU-dropped beyond it); 0 = unbounded.
    std::size_t memo_limit = 0;
    /// Points handed to the worker pool at a time: a space is walked in
    /// chunks of this size, so a 10^5-point plane never exists as one
    /// eager vector.  It also bounds the reports a worker holds back
    /// while another delivers (see sink).  Must be >= 1.
    std::size_t chunk = 1024;
};

/// Per-point report channel: (space index, finished report).
using stream_callback = std::function<void(std::size_t index, const flow_report& report)>;

/// The unified delivery interface of session::explore.  Both channels
/// are optional.  Calls are serialised (never concurrent), so a callback
/// may touch shared state without locking, and each point is delivered
/// exactly once.  A slow callback stalls only the worker that is
/// delivering: a worker that finds a delivery running holds its report
/// back and goes on computing, and delivers what it holds the next time
/// it finishes a point while no delivery is running, or before it
/// leaves its chunk of points, so it holds back at most one chunk
/// (session_options::chunk).  A throwing
/// callback cancels every later delivery, held-back reports included:
/// the exploration stops once the running workers drain, and the first
/// exception is rethrown to the caller.
struct sink {
    /// Per-point channel: (space index, finished report), in completion
    /// order — memo-served points complete instantly, computed points as
    /// their worker finishes (or, when another delivery was running then,
    /// with that worker's next delivery).
    stream_callback on_result;
    /// Pareto channel: invoked only when a report *changed* the
    /// incremental front, with exactly the points that entered and left.
    /// Replaying the deltas reconstructs the final front.
    std::function<void(const front_delta&)> on_front;
};

/// Outcome of one explore() call.
struct explore_summary {
    std::size_t space_size = 0; ///< points the space describes
    std::size_t evaluated = 0;  ///< points delivered (< space_size when refine pruned)
    std::size_t feasible = 0;   ///< delivered points with an ok status
    std::size_t metric_served = 0; ///< points answered as metric-only reports
    std::vector<front_point> front; ///< final Pareto front over the delivered points
    double wall_ms = 0.0;           ///< wall-clock time of the exploration
    /// The session cache's counters, snapshot after the walk.
    explore_cache::counters counters{};
};

/// Knobs of one explore_guided() call.
struct guided_options {
    /// Prune margin, in prediction-sigma units: a pending point is
    /// skipped only while its *optimistic* prediction (mean shifted
    /// `margin` sigmas in the point's favour) is predicted infeasible or
    /// dominated by the running exact front.  Larger margins widen the
    /// exact-verify band (safer, more evaluations); must be >= 0.
    double margin = 3.0;
    /// Hard cap on exact evaluations; 0 = unbounded.  A binding budget
    /// deliberately trades the front-identity guarantee for cost — the
    /// points left unevaluated are reported as skipped.
    std::size_t eval_budget = 0;
    /// Exact evaluations per guided round; the model refits and every
    /// pending point is re-audited between rounds.  Must be >= 1.
    /// Larger batches spread coverage faster (signature brackets form
    /// sooner), smaller ones audit more often; 256 measures best on
    /// 10^4-point planes.
    std::size_t batch = 256;
    /// Training rows before the surrogate may prune at all (forwarded
    /// to surrogate_options::min_rows).
    std::size_t min_train = 24;
    /// Ridge strength of the linear models; must be > 0.
    double ridge = 1e-6;
    /// Seed the model from this session's warm metric records (loaded
    /// cache files / previous explorations of the same configuration)
    /// before the walk starts.
    bool pretrain_from_cache = true;
};

/// Outcome of one explore_guided() call.  The base counters keep their
/// explore() meaning: `evaluated` counts *delivered* points — exact
/// computations plus memo serves; skipped points are never delivered.
struct guided_summary : explore_summary {
    std::size_t computed = 0;    ///< points evaluated exactly (worker pool or refine corner)
    std::size_t memo_served = 0; ///< points answered from the memo during the scan
    std::size_t skipped = 0;     ///< points pruned by the surrogate, never delivered
    std::size_t verified = 0;    ///< exact evaluations ordered by a *ready* model
    std::size_t rounds = 0;      ///< guided refit/audit rounds run
    std::size_t trained_rows = 0; ///< rows folded into the model (incl. pretraining)
};

/// One design problem + one cache + many explorations.  Not thread-safe
/// itself (one explore() at a time); the evaluation inside fans out over
/// the worker pool.
class session {
public:
    /// Binds `prototype` (its constraint point is irrelevant) to a fresh
    /// cache built for its (graph, library).  @throws phls::error on a
    /// malformed problem or invalid options.
    explicit session(const flow& prototype, const session_options& opts = {});

    /// The session's cache; shareable with plain flow::reuse() callers.
    const std::shared_ptr<explore_cache>& cache() const { return cache_; }

    /// Persists the cache's report memo as metric records (cache-file
    /// format v4, fixed-width little-endian, so portable between hosts);
    /// returns the number of records written — what load() into a fresh
    /// session reports.  @throws phls::error when the file cannot be
    /// written.
    std::size_t save(const std::string& path) const { return cache_->save(path); }

    /// Unions a save()d cache file into this session's (possibly warm)
    /// cache: novel metric records are inserted, keys the cache already
    /// holds keep their in-memory value.  Returns the number of new
    /// records.  This is how a repeated sweep warm-starts and how
    /// per-shard sweep caches combine into one warm session; loading
    /// every shard file then behaves like the single cache that computed
    /// all shards.  @throws cache_file_error carrying the path and
    /// failure kind (missing / truncated / corrupt / version or problem
    /// mismatch; files written before format v4 are version mismatches
    /// and must be deleted) — never silently degrades.  Call between
    /// explorations, not during one.
    std::size_t load(const std::string& path) { return cache_->load(path); }

    /// Evaluates every point of `s` (adaptively, when s.adaptive()) on
    /// `threads` workers, delivering through `sk` and folding the
    /// incremental Pareto front.  `threads == 0` means hardware
    /// concurrency; a negative count is a malformed request and fails
    /// every point with invalid_argument, memo-warm ones included.
    /// Reports of a cold, unbounded session are byte-identical to one
    /// flow::run() per point of s.materialize(), for every thread
    /// count; a failure in one point (even an escaped exception) is
    /// isolated to that point's report.  Warm or evicted points are
    /// served as metric-only reports.
    explore_summary explore(const space& s, const sink& sk = {}, int threads = 0);

    /// Like explore(), but steered by an incremental surrogate: pending
    /// points are evaluated best-predicted-first in rounds, and points
    /// whose optimistic prediction stays dominated by the running front
    /// by `g.margin` sigmas — or that sit strictly inside a
    /// constant-signature run of evaluated neighbours (the 1-D analogue
    /// of refine's uniform-cell rule) — are skipped without ever being
    /// delivered.
    /// Every surviving point is evaluated *exactly* — the surrogate
    /// steers, never decides — and with an unbounded eval_budget the
    /// returned front is gated byte-identical to explore()'s.
    /// Counters satisfy computed + memo_served + skipped == space_size.
    /// Adaptive (refine) spaces run the refine walk with every corner
    /// training the model but no surrogate pruning (refine owns its own
    /// skip decisions), so refine+guided == refine+eager.
    guided_summary explore_guided(const space& s, const guided_options& g = {},
                                  const sink& sk = {}, int threads = 0);

private:
    struct delivery_state;

    /// Evaluates `indices` (space indices into `s`), serving memo hits
    /// and running the rest on a pool of `threads` workers.  When the
    /// state carries a surrogate, the freshly delivered rows are trained
    /// in space-index order before returning.
    void evaluate(const space& s, const std::vector<std::size_t>& indices,
                  delivery_state& state, int threads);

    /// Serves `index` from the report memo if possible; returns false
    /// when the point must be computed.
    bool serve_from_memo(const space& s, std::size_t index,
                         delivery_state& state);

    explore_summary explore_exhaustive(const space& s, delivery_state& state,
                                       int threads);
    explore_summary explore_adaptive(const space& s, delivery_state& state,
                                     int threads);

    flow flow_;
    session_options opts_;
    std::shared_ptr<explore_cache> cache_;
};

} // namespace phls::dse
