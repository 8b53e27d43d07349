#include "dse/session.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "support/codec.h"
#include "support/errors.h"
#include "support/strings.h"

namespace phls::dse {

namespace {

/// The Pareto-region signature refine() compares across cell corners:
/// the outcome class and the achieved metrics, canonically encoded.
/// The constraint point itself and diagnostic text (which embeds the
/// point) are deliberately excluded — two corners are "the same region"
/// iff the synthesis *outcome* is identical.
std::string region_signature(const flow_report& r)
{
    byte_writer sig;
    sig.u8(static_cast<std::uint8_t>(r.st.code));
    sig.boolean(r.has_design);
    sig.boolean(r.optimal);
    sig.f64(r.area);
    sig.f64(r.peak);
    sig.i32(r.latency);
    sig.boolean(r.has_lifetime);
    sig.f64(r.lifetime_seconds);
    return sig.take();
}

double elapsed_ms(std::chrono::steady_clock::time_point since)
{
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - since).count();
}

/// Where a delivered report came from — the guided walk's counters tell
/// exact computations and memo serves apart.
enum class delivery_source { computed, memo_report, memo_metric };

/// The surrogate may skip a point only while it is predicted infeasible
/// by `margin` sigmas, or while its *optimistic* estimate (every
/// objective shifted `margin` sigmas in the point's favour) is still
/// dominated by the running exact front.  Anything less clear-cut lands
/// in the exact-verify band and is evaluated.
bool prunable(const estimate& e, std::size_t index, const synthesis_constraints& c,
              const std::vector<front_point>& front, bool want_lifetime,
              double margin)
{
    if (!e.ready) return false;
    if (e.feasible.mean + margin * e.feasible.sigma < 0.5) return true;
    if (!e.metrics_ready) return false;
    front_point cand;
    cand.index = index;
    cand.latency_bound = c.latency;
    cand.cap = c.max_power;
    cand.peak = e.peak.mean - margin * e.peak.sigma;
    cand.area = e.area.mean - margin * e.area.sigma;
    cand.latency = c.latency;
    cand.has_lifetime = want_lifetime;
    cand.lifetime_seconds = e.lifetime.mean + margin * e.lifetime.sigma;
    for (const front_point& a : front)
        if (front_dominates(a, cand)) return true;
    return false;
}

/// Region signatures of the evaluated points, addressable along both
/// constraint axes: latency bound -> cap -> signature and its
/// transpose.  This is what lets the guided walk prune the interiors of
/// constant-outcome runs a regression band can never rule out.
struct signature_grid {
    std::map<int, std::map<double, std::string>> by_latency;
    std::map<double, std::map<int, std::string>> by_cap;

    void record(const flow_report& r)
    {
        const std::string sig = region_signature(r);
        by_latency[r.constraints.latency][r.constraints.max_power] = sig;
        by_cap[r.constraints.max_power][r.constraints.latency] = sig;
    }

    /// True when the nearest evaluated points strictly either side of
    /// `key` in `row` landed on the same Pareto region.
    template <typename Map, typename Key>
    static bool run_interior(const Map& row, Key key)
    {
        const auto hi = row.upper_bound(key); // first strictly above
        if (hi == row.end()) return false;
        auto lo = row.lower_bound(key); // first not-below
        if (lo == row.begin()) return false;
        --lo; // largest strictly below
        return lo->second == hi->second;
    }

    /// A metric plateau's interior cannot change the front: whichever
    /// exact-tie representative survives the front's index collapse
    /// sits on a run *boundary* (its lower neighbour differs), so the
    /// interior points are skippable.  The 1-D analogue of refine's
    /// uniform-cell rule: a heuristic (a pocket strictly between two
    /// same-signature evaluations would be missed, like refine's
    /// interior pockets), enforced byte-identical by the test and bench
    /// gates.  Exact-duplicate points are deliberately NOT treated as
    /// brackets — they are served from the memo instead, keeping the
    /// lowest-index representative exact.
    bool bracketed(const synthesis_constraints& c) const
    {
        const auto row = by_latency.find(c.latency);
        if (row != by_latency.end() && run_interior(row->second, c.max_power))
            return true;
        const auto col = by_cap.find(c.max_power);
        return col != by_cap.end() && run_interior(col->second, c.latency);
    }
};

} // namespace

/// Per-explore() mutable state: the incremental front, the summary under
/// construction, and (for adaptive spaces) the corner signatures.
struct session::delivery_state {
    const sink* sk = nullptr;
    pareto_stream front;
    explore_summary summary;
    bool want_signatures = false;
    std::unordered_map<std::size_t, std::string> signatures; ///< space index -> region
    surrogate* model = nullptr;   ///< set only by explore_guided
    signature_grid* grid = nullptr; ///< set only by the guided walk
    std::size_t computed = 0;     ///< deliveries from the worker pool
    std::size_t memo_served = 0;  ///< deliveries from the report-memo scan
    std::size_t trained_rows = 0; ///< rows folded into the surrogate
    /// Freshly delivered rows awaiting training, drained by train_fresh().
    std::vector<std::pair<std::size_t, metric_record>> fresh;

    /// Folds one finished report in and fans it out to the sink.  Called
    /// serialised (scan loop or the worker pool's serialised delivery).
    void deliver(std::size_t index, const flow_report& report, delivery_source src)
    {
        ++summary.evaluated;
        if (report.st.ok()) ++summary.feasible;
        if (src == delivery_source::memo_metric) ++summary.metric_served;
        if (src == delivery_source::computed)
            ++computed;
        else
            ++memo_served;
        if (model != nullptr) fresh.emplace_back(index, metric_of(report));
        if (grid != nullptr) grid->record(report);
        if (want_signatures) signatures.emplace(index, region_signature(report));
        front_delta delta;
        front.add(index, report, &delta);
        if (sk->on_result) sk->on_result(index, report);
        if (delta.changed() && sk->on_front) sk->on_front(delta);
    }

    /// Trains the pending fresh rows in *space-index* order, so the
    /// model state (and therefore every prune decision downstream) is
    /// independent of worker-completion order and thread count.
    void train_fresh()
    {
        if (model == nullptr) {
            fresh.clear();
            return;
        }
        std::sort(fresh.begin(), fresh.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        for (const auto& [index, m] : fresh) {
            (void)index;
            model->train(m);
            ++trained_rows;
        }
        fresh.clear();
    }
};

session::session(const flow& prototype, const session_options& opts)
    : flow_(prototype), opts_(opts), cache_(flow_.build_cache())
{
    check(opts_.chunk >= 1, "session chunk size must be >= 1");
    cache_->set_report_capacity(opts_.memo_limit);
}

bool session::serve_from_memo(const space& s, std::size_t index,
                              delivery_state& state)
{
    const synthesis_constraints c = s.at(index);
    const std::string fp = flow_.fingerprint(c);
    flow_report full;
    if (cache_->report_lookup(fp, &full)) {
        state.deliver(index, full, delivery_source::memo_report);
        return true;
    }
    // Metric-only entries exist only after an eviction or a cache-file
    // load; skip the per-point probe (one mutex round-trip each) when
    // there are none.
    if (cache_->report_metric_size() > 0) {
        metric_record m;
        if (cache_->metric_lookup(fp, &m)) {
            state.deliver(index, metric_report(m), delivery_source::memo_metric);
            return true;
        }
    }
    return false;
}

void session::evaluate(const space& s, const std::vector<std::size_t>& indices,
                       delivery_state& state, int threads)
{
    // A negative worker count is a malformed request, not "use all
    // cores" (that is spelled 0): every point fails with
    // invalid_argument, memo-warm ones included, so the scan is skipped.
    // Otherwise duplicate points whose full report is memoised are
    // served as run_point would serve them (so a cold session is
    // byte-identical to one flow::run() per point); points evicted to —
    // or warm-started as — metric records answer at the metric level;
    // everything else runs on the worker pool.
    const bool malformed = threads < 0;
    std::vector<std::size_t> pending;
    for (const std::size_t index : indices)
        if (malformed || !serve_from_memo(s, index, state)) pending.push_back(index);

    const status refused =
        malformed ? status::invalid(strf(
                        "thread count must be >= 0 (0 = hardware concurrency), got %d",
                        threads))
                  : status::success();
    std::size_t workers = threads > 0 ? static_cast<std::size_t>(threads)
                          : malformed ? 1
                                      : std::max(1u, std::thread::hardware_concurrency());
    workers = std::min(workers, pending.size());

    // A report that names its point and strategy but never ran.
    const auto failed = [this](const synthesis_constraints& c, const status& st) {
        flow_report r;
        r.strategy = flow_.synthesizer_name();
        r.constraints = c;
        r.st = st;
        return r;
    };
    // Each point is claimed by exactly one worker.  run_point never
    // throws, but the catch keeps even an allocation failure isolated to
    // one point's report.  Deliveries are serialised under
    // `deliver_mutex` in completion order; the first sink exception
    // cancels the rest and is rethrown once every worker has drained.
    std::atomic<std::size_t> next{0};
    std::mutex deliver_mutex;
    std::exception_ptr sink_error;
    const auto drain = [&] {
        for (std::size_t k = next.fetch_add(1); k < pending.size(); k = next.fetch_add(1)) {
            const std::size_t index = pending[k];
            const synthesis_constraints c = s.at(index);
            flow_report report;
            try {
                report = malformed ? failed(c, refused) : flow_.run_point(c, cache_.get());
            } catch (const std::exception& e) {
                report = failed(c, status::internal(e.what()));
            }
            const std::lock_guard<std::mutex> lock(deliver_mutex);
            if (sink_error) continue;
            try {
                state.deliver(index, report, delivery_source::computed);
            } catch (...) {
                sink_error = std::current_exception();
            }
        }
    };
    if (workers <= 1) {
        drain();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(drain);
        for (std::thread& t : pool) t.join();
    }
    if (sink_error) std::rethrow_exception(sink_error);
    // Fresh rows train *after* the pool in space-index order, so the
    // model is a function of the evaluated set alone, not of completion
    // order — adaptive (refine) corner evaluations flow through here
    // too, which is what makes refine+guided == refine+eager.
    state.train_fresh();
}

explore_summary session::explore(const space& s, const sink& sk, int threads)
{
    const auto started = std::chrono::steady_clock::now();
    delivery_state state;
    state.sk = &sk;
    state.summary.space_size = s.size();

    explore_summary summary = s.adaptive() ? explore_adaptive(s, state, threads)
                                           : explore_exhaustive(s, state, threads);
    summary.front = state.front.front();
    summary.counters = cache_->stats();
    summary.wall_ms = elapsed_ms(started);
    return summary;
}

guided_summary session::explore_guided(const space& s, const guided_options& g,
                                       const sink& sk, int threads)
{
    check(g.margin >= 0.0, "guided prune margin must be >= 0");
    check(g.batch >= 1, "guided batch size must be >= 1");
    const auto started = std::chrono::steady_clock::now();
    delivery_state state;
    state.sk = &sk;
    state.summary.space_size = s.size();

    surrogate model(flow_.library(), flow_.wants_lifetime(),
                    {g.ridge, g.min_train});
    // Seed the model from every warm record of this exact configuration
    // (loaded cache files, previous explorations).  When pretraining
    // runs, the scan below must not re-train its memo hits — they are
    // the same records — so the model is attached only afterwards.
    if (g.pretrain_from_cache) {
        cache_->each_metric([&](const std::string& fp, const metric_record& m) {
            if (fp != flow_.fingerprint(m.constraints)) return;
            model.train(m);
            ++state.trained_rows;
        });
    } else {
        state.model = &model;
    }

    std::size_t verified = 0;
    std::size_t rounds = 0;
    std::size_t skipped = 0;

    if (s.adaptive()) {
        // refine owns the skip decisions on an adaptive lattice; the
        // surrogate only trains (through evaluate()), so refine+guided
        // delivers exactly what refine+eager delivers.
        state.model = &model;
        explore_adaptive(s, state, threads);
        skipped = state.summary.space_size - state.summary.evaluated;
    } else if (threads < 0) {
        // A malformed worker count fails every point (see evaluate()) —
        // nothing may be pruned or memo-served.
        state.model = &model;
        explore_exhaustive(s, state, threads);
    } else {
        // Scan every point once: memo hits deliver (and count) now, the
        // rest become the pending pool the surrogate steers through.
        signature_grid grid;
        state.grid = &grid;
        std::vector<std::size_t> pending;
        s.enumerate([&](std::size_t index, const synthesis_constraints&) {
            if (!serve_from_memo(s, index, state)) pending.push_back(index);
            return true;
        });
        state.train_fresh();
        state.model = &model;

        const bool want_lifetime = flow_.wants_lifetime();
        struct scored {
            std::size_t index;
            double area;
            double peak;
        };
        while (!pending.empty()) {
            if (g.eval_budget != 0 && state.computed >= g.eval_budget) break;
            ++rounds;
            const bool steering = model.ready();
            const std::vector<front_point>& front = state.front.front();
            std::vector<std::size_t> keep_raw;
            std::vector<scored> ranked;
            std::vector<std::size_t> pruned;
            for (const std::size_t index : pending) {
                const synthesis_constraints c = s.at(index);
                if (grid.bracketed(c)) {
                    pruned.push_back(index);
                    continue;
                }
                if (!steering) {
                    keep_raw.push_back(index);
                    continue;
                }
                const estimate e = model.predict(c);
                if (prunable(e, index, c, front, want_lifetime, g.margin))
                    pruned.push_back(index);
                else
                    ranked.push_back({index, e.area.mean, e.peak.mean});
            }
            std::vector<std::size_t> keep;
            if (!steering) {
                // Seed rounds sample the pending pool with a stride, so
                // the first g.batch evaluations *span* the space instead
                // of piling into one corner — the model's first fit (and
                // its leverage bands) then rest on a covering design.
                const std::size_t stride =
                    std::max<std::size_t>(1, keep_raw.size() / g.batch);
                keep.reserve(keep_raw.size());
                for (std::size_t offset = 0; offset < stride; ++offset)
                    for (std::size_t k = offset; k < keep_raw.size(); k += stride)
                        keep.push_back(keep_raw[k]);
            } else {
                // Best-predicted-first: the points the model expects on
                // the front evaluate early, so later audits prune
                // against a tight exact front.
                std::sort(ranked.begin(), ranked.end(),
                          [](const scored& a, const scored& b) {
                              if (a.area != b.area) return a.area < b.area;
                              if (a.peak != b.peak) return a.peak < b.peak;
                              return a.index < b.index;
                          });
                keep.reserve(ranked.size());
                for (const scored& r : ranked) keep.push_back(r.index);
            }
            if (keep.empty()) {
                // Fixpoint: every pending point stays prunable against
                // the final model and the final exact front.
                pending = std::move(pruned);
                break;
            }
            std::size_t take = std::min<std::size_t>(g.batch, keep.size());
            if (g.eval_budget != 0)
                take = std::min<std::size_t>(take, g.eval_budget - state.computed);
            const std::vector<std::size_t> block(
                keep.begin(), keep.begin() + static_cast<std::ptrdiff_t>(take));
            const std::size_t computed_before = state.computed;
            evaluate(s, block, state, threads);
            if (steering) verified += state.computed - computed_before;
            // Everything not in this round's block stays pending and is
            // re-audited against the refit model and the grown front.
            std::vector<std::size_t> rest(
                keep.begin() + static_cast<std::ptrdiff_t>(take), keep.end());
            rest.insert(rest.end(), pruned.begin(), pruned.end());
            std::sort(rest.begin(), rest.end());
            pending = std::move(rest);
        }
        skipped = pending.size();
    }

    guided_summary summary;
    static_cast<explore_summary&>(summary) = state.summary;
    summary.front = state.front.front();
    summary.computed = state.computed;
    summary.memo_served = state.memo_served;
    summary.skipped = skipped;
    summary.verified = verified;
    summary.rounds = rounds;
    summary.trained_rows = state.trained_rows;
    summary.counters = cache_->stats();
    summary.wall_ms = elapsed_ms(started);
    return summary;
}

explore_summary session::explore_exhaustive(const space& s, delivery_state& state,
                                            int threads)
{
    // Walk the space in bounded chunks: at most opts_.chunk space
    // indices exist at once, however large the space is.
    std::vector<std::size_t> chunk;
    chunk.reserve(std::min<std::size_t>(opts_.chunk, s.size()));
    s.enumerate([&](std::size_t index, const synthesis_constraints&) {
        chunk.push_back(index);
        if (chunk.size() >= opts_.chunk) {
            evaluate(s, chunk, state, threads);
            chunk.clear();
        }
        return true;
    });
    if (!chunk.empty()) evaluate(s, chunk, state, threads);
    return state.summary;
}

explore_summary session::explore_adaptive(const space& s, delivery_state& state,
                                          int threads)
{
    const std::vector<int>& ts = s.latencies();
    const std::vector<double>& ps = s.caps();
    const std::size_t np = ps.size();
    const auto lin = [np](std::size_t i, std::size_t j) { return i * np + j; };

    state.want_signatures = true;

    // Coarse-to-fine cell subdivision over the index lattice.  Each wave
    // evaluates every corner it is missing (one pool round per chunk, so
    // the workers stay busy), then splits exactly the cells whose
    // corners landed on different Pareto-front regions.
    struct cell {
        std::size_t i0, i1, j0, j1;
    };
    std::vector<cell> wave = {{0, ts.size() - 1, 0, np - 1}};
    while (!wave.empty()) {
        std::vector<std::size_t> need;
        std::set<std::size_t> queued;
        for (const cell& c : wave)
            for (const std::size_t index :
                 {lin(c.i0, c.j0), lin(c.i0, c.j1), lin(c.i1, c.j0), lin(c.i1, c.j1)})
                if (!state.signatures.count(index) && queued.insert(index).second)
                    need.push_back(index);
        std::sort(need.begin(), need.end()); // deterministic input order
        // The chunk bound holds for adaptive walks too: a wave of a
        // large non-uniform lattice can need most of its corners.
        for (std::size_t pos = 0; pos < need.size(); pos += opts_.chunk) {
            const std::vector<std::size_t> block(
                need.begin() + static_cast<std::ptrdiff_t>(pos),
                need.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(pos + opts_.chunk, need.size())));
            evaluate(s, block, state, threads);
        }

        std::vector<cell> next;
        for (const cell& c : wave) {
            const bool can_t = c.i1 - c.i0 > 1;
            const bool can_p = c.j1 - c.j0 > 1;
            if (!can_t && !can_p) continue; // no interior points to decide on
            const std::string& sig = state.signatures.at(lin(c.i0, c.j0));
            if (sig == state.signatures.at(lin(c.i0, c.j1)) &&
                sig == state.signatures.at(lin(c.i1, c.j0)) &&
                sig == state.signatures.at(lin(c.i1, c.j1)))
                continue; // uniform cell: its interior cannot change the front
            const std::size_t im = (c.i0 + c.i1) / 2;
            const std::size_t jm = (c.j0 + c.j1) / 2;
            if (can_t && can_p) {
                next.push_back({c.i0, im, c.j0, jm});
                next.push_back({c.i0, im, jm, c.j1});
                next.push_back({im, c.i1, c.j0, jm});
                next.push_back({im, c.i1, jm, c.j1});
            } else if (can_t) {
                next.push_back({c.i0, im, c.j0, c.j1});
                next.push_back({im, c.i1, c.j0, c.j1});
            } else {
                next.push_back({c.i0, c.i1, c.j0, jm});
                next.push_back({c.i0, c.i1, jm, c.j1});
            }
        }
        wave = std::move(next);
    }
    return state.summary;
}

} // namespace phls::dse
