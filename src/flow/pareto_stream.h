// Incremental Pareto front / Figure-2 envelope over streamed reports.
//
// A sweep's interesting output is rarely the raw per-point vector: it
// is the Pareto front in the (peak power, area, battery lifetime) space
// and the paper's Figure-2 envelope (best area achievable under each
// cap).  pareto_stream folds finished flow_reports in one at a time —
// the shape a dse::sink's result channel delivers them in — and
// maintains the exact front incrementally, so a consumer can render
// partial results while the sweep is still running.  The incremental
// front after the last point equals the front computed post-hoc from
// the collected reports (pareto_points) regardless of completion order,
// and best_under reads the envelope off any such front.
//
// dse::session::explore folds every delivered report into one and
// streams its changes as front_deltas through the sink's front channel.
#pragma once

#include <cstddef>
#include <vector>

#include "flow/flow.h"

namespace phls {

/// One feasible design on the streamed front.
struct front_point {
    std::size_t index = 0;         ///< input index of the originating report
    int latency_bound = 0;         ///< T of the constraint point
    double cap = 0.0;              ///< Pmax of the constraint point
    double area = 0.0;             ///< achieved total area (minimised)
    double peak = 0.0;             ///< achieved peak per-cycle power (minimised)
    int latency = 0;               ///< achieved latency, cycles
    bool has_lifetime = false;     ///< the lifetime stage ran for this report
    double lifetime_seconds = 0.0; ///< battery lifetime (maximised when present)
};

/// Field-wise equality (used by the incremental == post-hoc assertions).
bool operator==(const front_point& a, const front_point& b);

/// True iff `a` renders `b` redundant: `a` is no worse on every objective
/// — peak and area lower-or-equal, lifetime greater-or-equal (compared
/// only when both reports ran the lifetime stage) — and either strictly
/// better somewhere or an exact objective tie with the lower input index
/// (so duplicate points keep one representative, deterministically).
/// The index tiebreak is restricted to points with matching
/// has_lifetime, keeping the relation a strict partial order even on
/// mixed report sets; a session always feeds a uniform configuration,
/// where every pair is fully comparable.
bool front_dominates(const front_point& a, const front_point& b);

/// The change one report made to the front: the points that entered and
/// the points it displaced.  Replaying a delta sequence onto an empty
/// front reconstructs the final front exactly, so a consumer (the CLI's
/// progress channel, a future multi-process aggregator) can mirror the
/// envelope without ever being sent the whole front per completion —
/// the dse::session sink delivers these.
struct front_delta {
    std::size_t index = 0;            ///< input index of the folded report
    std::vector<front_point> entered; ///< points added (0 or 1 per fold)
    std::vector<front_point> left;    ///< points the entrant displaced
    /// True iff the fold changed the front (equivalently: entered or
    /// left is non-empty).
    bool changed() const { return !entered.empty() || !left.empty(); }
};

/// Incremental Pareto-front accumulator.  Not thread-safe by itself;
/// a dse::sink's deliveries are serialised, which is where it is meant
/// to be fed.
class pareto_stream {
public:
    /// Folds one finished report in; infeasible reports leave the front
    /// as it is.  Returns true iff the front changed.  When `delta` is
    /// non-null it receives exactly the points that entered and left on
    /// this fold (empty vectors when nothing changed).
    bool add(std::size_t index, const flow_report& report, front_delta* delta = nullptr);

    /// The current front: non-dominated feasible points, sorted by
    /// (peak, area, index) ascending.
    const std::vector<front_point>& front() const { return front_; }

private:
    std::vector<front_point> front_;
};

/// The Figure-2 envelope value at `cap`: the point of `front` with the
/// smallest area (ties: lower peak, then lower index) whose achieved
/// peak fits under `cap` (within cap_test::tolerance).  A design that
/// fits under a tighter cap is also valid under a looser one, so this is
/// the best design found that satisfies the constraint and the envelope
/// is non-increasing in the cap; each point's own outcome stays in its
/// report (the greedy can find a *better* design under a mild cap than
/// under none, because power-feasible windows guide its decisions).  The
/// smallest fitting design of a sweep always has an equal-(area, peak)
/// point on the sweep's front, so the front answers for every report.
/// Returns nullptr when nothing fits; the pointer lives as long as
/// `front` is unchanged.
const front_point* best_under(const std::vector<front_point>& front, double cap);

/// Post-hoc reference: the same front computed from a finished report
/// vector (index = position).  pareto_stream fed with any permutation of
/// the vector ends on exactly this front.
std::vector<front_point> pareto_points(const std::vector<flow_report>& reports);

} // namespace phls
