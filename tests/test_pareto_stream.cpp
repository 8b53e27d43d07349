// Tests for the incremental Pareto front (flow/pareto_stream.h) and the
// front channel of dse::session::explore: the streamed front must equal
// the post-hoc front whatever the completion order, and best_under over
// it must agree with a brute-force Figure-2 envelope of the reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "cdfg/benchmarks.h"
#include "flow/flow.h"
#include "flow/pareto_stream.h"
#include "sweep_util.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

flow_report fake_report(std::size_t, double peak, double area, double cap,
                        bool feasible = true, double lifetime = -1.0)
{
    flow_report r;
    r.constraints = {17, cap};
    if (feasible) {
        r.st = status::success();
        r.has_design = true;
        r.peak = peak;
        r.area = area;
        r.latency = 17;
    } else {
        r.st = status::infeasible("fake");
    }
    if (lifetime >= 0.0) {
        r.has_lifetime = true;
        r.lifetime_seconds = lifetime;
    }
    return r;
}

std::vector<flow_report> hal_sweep(int points)
{
    const flow f = flow::on(make_hal()).with_library(lib()).latency(17);
    std::vector<synthesis_constraints> grid;
    for (double cap : f.power_grid(points)) grid.push_back({17, cap});
    return run_each(f, grid);
}

// -------------------------------------------------------------- dominance

TEST(pareto_stream, dominance_is_componentwise_with_index_tiebreak)
{
    const front_point a{0, 17, 9.0, 100.0, 5.0, 17, false, 0.0};
    const front_point better_area{1, 17, 9.0, 90.0, 5.0, 17, false, 0.0};
    const front_point better_peak{2, 17, 9.0, 100.0, 4.0, 17, false, 0.0};
    const front_point trade_off{3, 17, 9.0, 90.0, 6.0, 17, false, 0.0};
    const front_point duplicate{4, 17, 12.0, 100.0, 5.0, 17, false, 0.0};

    EXPECT_TRUE(front_dominates(better_area, a));
    EXPECT_FALSE(front_dominates(a, better_area));
    EXPECT_TRUE(front_dominates(better_peak, a));
    EXPECT_FALSE(front_dominates(trade_off, a)); // worse peak, better area
    EXPECT_FALSE(front_dominates(a, trade_off));
    // Exact objective tie: the lower input index wins, asymmetrically.
    EXPECT_TRUE(front_dominates(a, duplicate));
    EXPECT_FALSE(front_dominates(duplicate, a));
    EXPECT_FALSE(front_dominates(a, a));
}

TEST(pareto_stream, lifetime_is_a_third_objective_when_present)
{
    const front_point short_lived{0, 17, 9.0, 100.0, 5.0, 17, true, 40.0};
    const front_point long_lived{1, 17, 9.0, 100.0, 5.0, 17, true, 70.0};
    // Same peak/area: the longer-lived design dominates despite the
    // higher index...
    EXPECT_TRUE(front_dominates(long_lived, short_lived));
    EXPECT_FALSE(front_dominates(short_lived, long_lived));

    // ...and a lifetime advantage keeps an otherwise-dominated design on
    // the front.
    pareto_stream s;
    (void)s.add(0, fake_report(0, 5.0, 100.0, 9.0, true, 70.0));
    (void)s.add(1, fake_report(1, 5.0, 90.0, 9.0, true, 40.0)); // cheaper, dies sooner
    EXPECT_EQ(s.front().size(), 2u);

    pareto_stream flat; // without lifetime the cheaper one wins outright
    (void)flat.add(0, fake_report(0, 5.0, 100.0, 9.0));
    (void)flat.add(1, fake_report(1, 5.0, 90.0, 9.0));
    EXPECT_EQ(flat.front().size(), 1u);
    EXPECT_EQ(flat.front()[0].index, 1u);
}

// ------------------------------------------------- incremental == post-hoc

TEST(pareto_stream, incremental_front_is_completion_order_independent)
{
    const std::vector<flow_report> reports = hal_sweep(12);
    const std::vector<front_point> reference = pareto_points(reports);
    ASSERT_FALSE(reference.empty());

    std::vector<std::size_t> order(reports.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

    for (int permutation = 0; permutation < 4; ++permutation) {
        pareto_stream s;
        bool any_change = false;
        for (const std::size_t i : order) any_change |= s.add(i, reports[i]);
        EXPECT_TRUE(any_change);
        ASSERT_EQ(s.front().size(), reference.size()) << "permutation " << permutation;
        for (std::size_t i = 0; i < reference.size(); ++i)
            EXPECT_TRUE(s.front()[i] == reference[i])
                << "permutation " << permutation << ", front point " << i;
        // reverse, then rotate for the next rounds: four distinct orders.
        if (permutation == 0) std::reverse(order.begin(), order.end());
        std::rotate(order.begin(), order.begin() + 3, order.end());
    }
}

TEST(pareto_stream, duplicate_points_keep_one_representative)
{
    const std::vector<flow_report> once = hal_sweep(8);
    const std::size_t n = once.size();
    std::vector<flow_report> reports = once;
    reports.insert(reports.end(), once.begin(), once.end());

    const std::vector<front_point> front = pareto_points(reports);
    pareto_stream s;
    for (std::size_t i = reports.size(); i-- > 0;) (void)s.add(i, reports[i]);
    ASSERT_EQ(s.front().size(), front.size());
    for (std::size_t i = 0; i < front.size(); ++i) {
        EXPECT_TRUE(s.front()[i] == front[i]) << i;
        EXPECT_LT(front[i].index, n) << "duplicate shadowed its original";
    }
}

// ------------------------------------------ agreement with a brute force

/// (area, peak) of one envelope value.
struct envelope_value {
    double area = 0.0;
    double peak = 0.0;
};

/// The brute-force Figure-2 envelope at report `i`'s cap: starting from
/// the report's own outcome, the smallest-area feasible report whose peak
/// fits under the cap, ties to the lower peak; nullopt when none fits.
std::optional<envelope_value> brute_force_envelope(const std::vector<flow_report>& reports,
                                                   std::size_t i)
{
    const double cap = reports[i].constraints.max_power;
    std::optional<envelope_value> best;
    if (reports[i].st.ok()) best = envelope_value{reports[i].area, reports[i].peak};
    for (const flow_report& q : reports) {
        if (!q.st.ok() || q.peak > cap + 1e-9) continue;
        if (!best || q.area < best->area || (q.area == best->area && q.peak < best->peak))
            best = envelope_value{q.area, q.peak};
    }
    return best;
}

TEST(pareto_stream, best_under_matches_the_monotone_envelope)
{
    const std::vector<flow_report> reports = hal_sweep(16);

    pareto_stream s;
    for (std::size_t i = 0; i < reports.size(); ++i) (void)s.add(i, reports[i]);
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const double cap = reports[i].constraints.max_power;
        const std::optional<envelope_value> want = brute_force_envelope(reports, i);
        const front_point* best = best_under(s.front(), cap);
        ASSERT_EQ(best != nullptr, want.has_value()) << "cap " << cap;
        if (best == nullptr) continue;
        EXPECT_DOUBLE_EQ(best->area, want->area) << "cap " << cap;
        EXPECT_DOUBLE_EQ(best->peak, want->peak) << "cap " << cap;
    }
}

// ---------------------------------------------------------- session front

TEST(session_pareto, streams_the_front_and_matches_the_final_vector)
{
    const flow f = flow::on(make_cosine()).with_library(lib()).latency(15);
    std::vector<synthesis_constraints> grid;
    for (double cap : f.power_grid(10)) grid.push_back({15, cap});
    grid.push_back(grid[grid.size() / 2]); // one duplicate for good measure

    std::set<std::size_t> seen;
    std::vector<front_delta> deltas;
    std::vector<flow_report> reports(grid.size());
    dse::sink sk;
    sk.on_result = [&](std::size_t i, const flow_report& r) {
        EXPECT_TRUE(seen.insert(i).second) << "index " << i << " delivered twice";
        EXPECT_DOUBLE_EQ(r.constraints.max_power, grid[i].max_power);
        reports[i] = r;
    };
    sk.on_front = [&](const front_delta& d) {
        EXPECT_TRUE(d.changed()); // only changes are delivered
        EXPECT_TRUE(seen.count(d.index)); // after the report it folds
        deltas.push_back(d);
    };
    const dse::explore_summary sum = dse::session(f).explore(dse::list(grid), sk, 3);
    EXPECT_EQ(seen.size(), grid.size());
    EXPECT_FALSE(deltas.empty());

    // The streamed front is the post-hoc front of the collected reports,
    // and the reports are byte-identical to the sequential run.
    const std::vector<front_point> posthoc = pareto_points(reports);
    EXPECT_EQ(replay_front(deltas), posthoc);
    EXPECT_EQ(sum.front, posthoc);
    const std::vector<flow_report> plain = run_each(f, grid);
    for (std::size_t i = 0; i < reports.size(); ++i)
        EXPECT_EQ(reports[i].to_string(), plain[i].to_string()) << i;
}

TEST(pareto_stream, add_reports_exact_deltas)
{
    pareto_stream s;
    front_delta d;

    // First feasible point enters, displacing nothing.
    EXPECT_TRUE(s.add(0, fake_report(0, 5.0, 100.0, 9.0), &d));
    EXPECT_TRUE(d.changed());
    ASSERT_EQ(d.entered.size(), 1u);
    EXPECT_EQ(d.entered[0].index, 0u);
    EXPECT_TRUE(d.left.empty());

    // A dominated point changes nothing and says so.
    EXPECT_FALSE(s.add(1, fake_report(1, 6.0, 110.0, 9.0), &d));
    EXPECT_FALSE(d.changed());
    EXPECT_EQ(d.index, 1u);
    EXPECT_TRUE(d.entered.empty() && d.left.empty());

    // An infeasible point likewise.
    EXPECT_FALSE(s.add(2, fake_report(2, 0.0, 0.0, 9.0, false), &d));
    EXPECT_FALSE(d.changed());

    // A trade-off point enters without displacing.
    EXPECT_TRUE(s.add(3, fake_report(3, 4.0, 120.0, 9.0), &d));
    ASSERT_EQ(d.entered.size(), 1u);
    EXPECT_TRUE(d.left.empty());
    EXPECT_EQ(s.front().size(), 2u);

    // A dominating point displaces both: the delta names exactly them.
    EXPECT_TRUE(s.add(4, fake_report(4, 4.0, 90.0, 9.0), &d));
    ASSERT_EQ(d.entered.size(), 1u);
    EXPECT_EQ(d.entered[0].index, 4u);
    ASSERT_EQ(d.left.size(), 2u);
    EXPECT_EQ(s.front().size(), 1u);

    EXPECT_EQ(s.front()[0].index, 4u);
    // (full delta-replay reconstruction is asserted in test_dse_session)
}

TEST(session_pareto, lifetime_front_equals_posthoc_when_lifetime_streams)
{
    lifetime_spec cell;
    cell.beta = 0.15;
    const flow f =
        flow::on(make_hal()).with_library(lib()).latency(17).estimate_lifetime(cell);
    std::vector<synthesis_constraints> grid;
    for (double cap : f.power_grid(8)) grid.push_back({17, cap});

    std::vector<flow_report> reports;
    dse::sink sk = collector(reports);
    std::vector<front_delta> deltas;
    sk.on_front = [&](const front_delta& d) { deltas.push_back(d); };
    const dse::explore_summary sum = dse::session(f).explore(dse::list(grid), sk, 2);
    const std::vector<front_point> posthoc = pareto_points(reports);
    EXPECT_EQ(replay_front(deltas), posthoc);
    EXPECT_EQ(sum.front, posthoc);
    for (const front_point& p : posthoc) EXPECT_TRUE(p.has_lifetime);
}

} // namespace
} // namespace phls
