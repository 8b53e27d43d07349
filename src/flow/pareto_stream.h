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
// the collected reports (pareto_points) regardless of completion order.
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
    /// Folds one finished report in; infeasible reports only advance the
    /// seen counters.  Returns true iff the front changed.  When `delta`
    /// is non-null it receives exactly the points that entered and left
    /// on this fold (empty vectors when nothing changed).
    bool add(std::size_t index, const flow_report& report, front_delta* delta = nullptr);

    /// The current front: non-dominated feasible points, sorted by
    /// (peak, area, index) ascending.
    const std::vector<front_point>& front() const { return front_; }

    /// The Figure-2 envelope value at `cap`: the design with the
    /// smallest area (ties: lower peak, then lower index) whose achieved
    /// peak fits under `cap`, among all points seen so far.  Returns
    /// nullptr when nothing feasible fits; the pointer is invalidated by
    /// the next add().  Agrees with monotone_envelope on the selected
    /// area and peak; when the lifetime objective is streamed, ties in
    /// (area, peak) resolve to the longest-lived surviving front point
    /// rather than monotone_envelope's (lifetime-blind) first occurrence.
    const front_point* best_under(double cap) const;

    /// Reports folded in so far (feasible or not).
    std::size_t seen() const { return seen_; }
    /// Feasible reports folded in so far.
    std::size_t feasible_seen() const { return feasible_; }

private:
    std::vector<front_point> front_;
    std::size_t seen_ = 0;
    std::size_t feasible_ = 0;
};

/// Post-hoc reference: the same front computed from a finished report
/// vector (index = position).  pareto_stream fed with any permutation of
/// the vector ends on exactly this front.
std::vector<front_point> pareto_points(const std::vector<flow_report>& reports);

} // namespace phls
