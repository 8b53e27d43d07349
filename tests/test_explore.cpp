// Tests for design-space exploration: sweeps, grids, the Figure-2
// envelope (best_under) and Pareto-front extraction (pareto_points).
#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "cdfg/benchmarks.h"
#include "flow/flow.h"
#include "flow/pareto_stream.h"
#include "support/errors.h"
#include "sweep_util.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

/// Evaluates one cap grid through the flow engine, in cap order.
std::vector<flow_report> sweep(const graph& g, int T, const std::vector<double>& caps,
                               int threads = 0)
{
    std::vector<synthesis_constraints> grid;
    grid.reserve(caps.size());
    for (double cap : caps) grid.push_back({T, cap});
    return explore_all(flow::on(g).with_library(lib()).latency(T), grid, threads);
}

std::vector<double> power_grid(const graph& g, int T, int points)
{
    return flow::on(g).with_library(lib()).latency(T).power_grid(points);
}

/// A hand-made report at `cap`: a design of (peak, area), or infeasible
/// when `area` is 0.
flow_report point(double cap, double peak = 0.0, double area = 0.0)
{
    flow_report r;
    r.constraints = {17, cap};
    if (area > 0.0) {
        r.st = status::success();
        r.has_design = true;
        r.peak = peak;
        r.area = area;
    } else {
        r.st = status::infeasible("fake");
    }
    return r;
}

/// The Figure-2 envelope of a sweep: best_under its front at each
/// report's own cap (nullopt where no design fits).
std::vector<std::optional<front_point>> envelope(const std::vector<flow_report>& reports)
{
    const std::vector<front_point> front = pareto_points(reports);
    std::vector<std::optional<front_point>> out;
    for (const flow_report& r : reports) {
        const front_point* p = best_under(front, r.constraints.max_power);
        out.push_back(p != nullptr ? std::optional<front_point>(*p) : std::nullopt);
    }
    return out;
}

TEST(explore, sweep_reports_one_point_per_cap)
{
    const graph g = make_hal();
    const std::vector<double> caps = {2.0, 6.0, 9.0, 15.0};
    const std::vector<flow_report> pts = sweep(g, 17, caps);
    ASSERT_EQ(pts.size(), caps.size());
    for (std::size_t i = 0; i < caps.size(); ++i) {
        EXPECT_DOUBLE_EQ(pts[i].constraints.max_power, caps[i]);
        EXPECT_EQ(pts[i].constraints.latency, 17);
        if (pts[i].st.ok()) {
            EXPECT_LE(pts[i].peak, caps[i] + 1e-9);
            EXPECT_GT(pts[i].area, 0.0);
        }
    }
    EXPECT_FALSE(pts[0].st.ok()); // 2.0 is below the mult minimum
}

TEST(explore, default_grid_spans_the_cliff_and_the_plateau)
{
    const graph g = make_hal();
    const std::vector<double> caps = power_grid(g, 17, 12);
    ASSERT_EQ(caps.size(), 12u);
    for (std::size_t i = 1; i < caps.size(); ++i) EXPECT_GT(caps[i], caps[i - 1]);
    const std::vector<flow_report> pts = sweep(g, 17, caps);
    EXPECT_FALSE(pts.front().st.ok()); // starts below feasibility
    EXPECT_TRUE(pts.back().st.ok());   // ends above the unconstrained peak
}

TEST(explore, default_grid_requires_two_points)
{
    EXPECT_THROW(power_grid(make_hal(), 17, 1), error);
}

TEST(explore, envelope_is_monotone_and_dominates_raw)
{
    const graph g = make_cosine();
    const std::vector<flow_report> raw = sweep(g, 12, power_grid(g, 12, 12));
    const std::vector<std::optional<front_point>> env = envelope(raw);
    ASSERT_EQ(env.size(), raw.size());
    double last_area = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < env.size(); ++i) {
        if (raw[i].st.ok()) {
            ASSERT_TRUE(env[i]);
            EXPECT_LE(env[i]->area, raw[i].area + 1e-9);
            EXPECT_LE(env[i]->peak, raw[i].constraints.max_power + 1e-9);
        }
        if (env[i]) {
            EXPECT_LE(env[i]->area, last_area + 1e-9);
            last_area = env[i]->area;
        }
    }
}

TEST(explore, envelope_fills_gaps_with_tighter_designs)
{
    // A feasible design at cap 10 is also the answer for cap 12 if the
    // raw greedy failed there.
    const std::vector<std::optional<front_point>> env =
        envelope({point(10, 9.5, 500), point(12)});
    ASSERT_TRUE(env[1]);
    EXPECT_DOUBLE_EQ(env[1]->area, 500);
    EXPECT_DOUBLE_EQ(env[1]->peak, 9.5);
}

TEST(explore, envelope_ignores_designs_that_overshoot_the_cap)
{
    // The 18-peak design does not qualify under cap 10.
    const std::vector<std::optional<front_point>> env =
        envelope({point(20, 18.0, 400), point(10)});
    EXPECT_FALSE(env[1]);
}

TEST(explore, pareto_front_is_strictly_improving)
{
    const graph g = make_hal();
    const std::vector<flow_report> pts = sweep(g, 17, power_grid(g, 17, 16));
    const std::vector<front_point> front = pareto_points(pts);
    ASSERT_FALSE(front.empty());
    for (std::size_t i = 1; i < front.size(); ++i) {
        EXPECT_GT(front[i].peak, front[i - 1].peak);
        EXPECT_LT(front[i].area, front[i - 1].area);
    }
    // Every front point must be feasible and undominated by any other point.
    for (const front_point& f : front) {
        EXPECT_TRUE(pts.at(f.index).st.ok());
        for (const flow_report& p : pts) {
            if (!p.st.ok()) continue;
            EXPECT_FALSE(p.peak <= f.peak && p.area < f.area - 1e-9);
        }
    }
}

TEST(explore, pareto_front_of_infeasible_sweep_is_empty)
{
    EXPECT_TRUE(pareto_points({point(2), point(3), point(4)}).empty());
}

TEST(explore, envelope_and_front_of_empty_input_are_empty)
{
    EXPECT_TRUE(envelope({}).empty());
    EXPECT_TRUE(pareto_points({}).empty());
    EXPECT_EQ(best_under({}, 10.0), nullptr);
}

TEST(explore, envelope_of_all_infeasible_sweep_stays_infeasible)
{
    std::vector<flow_report> pts;
    for (int i = 0; i < 4; ++i) pts.push_back(point(2.0 + double(i)));
    const std::vector<std::optional<front_point>> env = envelope(pts);
    ASSERT_EQ(env.size(), pts.size());
    for (const std::optional<front_point>& p : env) EXPECT_FALSE(p);
}

TEST(explore, pareto_front_keeps_one_of_duplicate_peak_points)
{
    // Three feasible designs share one peak; only the cheapest survives,
    // and a strictly dominated fourth point is dropped (higher peak AND
    // higher area than the second).
    const std::vector<front_point> front = pareto_points(
        {point(10, 8.0, 500), point(10, 8.0, 450), point(10, 8.0, 480), point(10, 9.0, 470)});
    ASSERT_EQ(front.size(), 1u);
    EXPECT_DOUBLE_EQ(front[0].peak, 8.0);
    EXPECT_DOUBLE_EQ(front[0].area, 450);
}

TEST(explore, envelope_breaks_area_ties_by_lower_peak)
{
    // Two designs with equal area qualify under cap 12; the envelope
    // must pick the lower-peak one (duplicate-area tie rule).
    const std::vector<flow_report> pts = {point(10, 9.0, 400), point(11, 10.5, 400),
                                          point(12)};
    const std::vector<std::optional<front_point>> env = envelope(pts);
    ASSERT_TRUE(env[2]);
    EXPECT_DOUBLE_EQ(env[2]->area, 400);
    EXPECT_DOUBLE_EQ(env[2]->peak, 9.0);

    // best_under applies the rule itself, on a front in any order.
    front_point low{0, 17, 10, 400, 9.0, 17, false, 0.0};
    front_point high{1, 17, 11, 400, 10.5, 17, false, 0.0};
    const std::vector<front_point> both = {high, low};
    ASSERT_NE(best_under(both, 12), nullptr);
    EXPECT_DOUBLE_EQ(best_under(both, 12)->peak, 9.0);
}

TEST(explore, sweep_is_identical_across_thread_counts)
{
    const graph g = make_hal();
    const std::vector<double> caps = power_grid(g, 17, 10);
    const std::vector<flow_report> seq = sweep(g, 17, caps, 1);
    for (int threads : {2, 4}) {
        const std::vector<flow_report> par = sweep(g, 17, caps, threads);
        ASSERT_EQ(par.size(), seq.size());
        for (std::size_t i = 0; i < seq.size(); ++i) {
            EXPECT_EQ(par[i].st.ok(), seq[i].st.ok());
            EXPECT_DOUBLE_EQ(par[i].constraints.max_power, seq[i].constraints.max_power);
            EXPECT_DOUBLE_EQ(par[i].area, seq[i].area);
            EXPECT_DOUBLE_EQ(par[i].peak, seq[i].peak);
            EXPECT_EQ(par[i].latency, seq[i].latency);
        }
    }
}

} // namespace
} // namespace phls
