// Tests for design-space exploration: sweeps, grids, the monotone
// envelope, and Pareto-front extraction.
#include <gtest/gtest.h>

#include "cdfg/benchmarks.h"
#include "flow/flow.h"
#include "support/errors.h"
#include "synth/explore.h"
#include "sweep_util.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

/// Evaluates one cap grid through the flow engine and maps the reports
/// to sweep points (what the removed legacy sweep shim used to do).
std::vector<sweep_point> sweep(const graph& g, int T, const std::vector<double>& caps,
                               int threads = 0)
{
    std::vector<synthesis_constraints> grid;
    grid.reserve(caps.size());
    for (double cap : caps) grid.push_back({T, cap});
    std::vector<sweep_point> out;
    for (const flow_report& r :
         explore_all(flow::on(g).with_library(lib()).latency(T), grid, threads))
        out.push_back(to_sweep_point(r));
    return out;
}

std::vector<double> power_grid(const graph& g, int T, int points)
{
    return flow::on(g).with_library(lib()).latency(T).power_grid(points);
}

TEST(explore, sweep_reports_one_point_per_cap)
{
    const graph g = make_hal();
    const std::vector<double> caps = {2.0, 6.0, 9.0, 15.0};
    const std::vector<sweep_point> pts = sweep(g, 17, caps);
    ASSERT_EQ(pts.size(), caps.size());
    for (std::size_t i = 0; i < caps.size(); ++i) {
        EXPECT_DOUBLE_EQ(pts[i].cap, caps[i]);
        EXPECT_EQ(pts[i].latency_bound, 17);
        if (pts[i].feasible) {
            EXPECT_LE(pts[i].peak, caps[i] + 1e-9);
            EXPECT_GT(pts[i].area, 0.0);
        }
    }
    EXPECT_FALSE(pts[0].feasible); // 2.0 is below the mult minimum
}

TEST(explore, default_grid_spans_the_cliff_and_the_plateau)
{
    const graph g = make_hal();
    const std::vector<double> caps = power_grid(g, 17, 12);
    ASSERT_EQ(caps.size(), 12u);
    for (std::size_t i = 1; i < caps.size(); ++i) EXPECT_GT(caps[i], caps[i - 1]);
    const std::vector<sweep_point> pts = sweep(g, 17, caps);
    EXPECT_FALSE(pts.front().feasible); // starts below feasibility
    EXPECT_TRUE(pts.back().feasible);   // ends above the unconstrained peak
}

TEST(explore, default_grid_requires_two_points)
{
    EXPECT_THROW(power_grid(make_hal(), 17, 1), error);
}

TEST(explore, envelope_is_monotone_and_dominates_raw)
{
    const graph g = make_cosine();
    const std::vector<sweep_point> raw = sweep(g, 12, power_grid(g, 12, 12));
    const std::vector<sweep_point> env = monotone_envelope(raw);
    ASSERT_EQ(env.size(), raw.size());
    double last_area = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < env.size(); ++i) {
        if (raw[i].feasible) {
            ASSERT_TRUE(env[i].feasible);
            EXPECT_LE(env[i].area, raw[i].area + 1e-9);
            EXPECT_LE(env[i].peak, env[i].cap + 1e-9);
        }
        if (env[i].feasible) {
            EXPECT_LE(env[i].area, last_area + 1e-9);
            last_area = env[i].area;
        }
    }
}

TEST(explore, envelope_fills_gaps_with_tighter_designs)
{
    // A feasible design at cap 10 is also the answer for cap 12 if the
    // raw greedy failed there.
    std::vector<sweep_point> pts(2);
    pts[0].cap = 10;
    pts[0].feasible = true;
    pts[0].area = 500;
    pts[0].peak = 9.5;
    pts[1].cap = 12;
    pts[1].feasible = false;
    const std::vector<sweep_point> env = monotone_envelope(pts);
    EXPECT_TRUE(env[1].feasible);
    EXPECT_DOUBLE_EQ(env[1].area, 500);
    EXPECT_DOUBLE_EQ(env[1].peak, 9.5);
}

TEST(explore, envelope_ignores_designs_that_overshoot_the_cap)
{
    std::vector<sweep_point> pts(2);
    pts[0].cap = 20;
    pts[0].feasible = true;
    pts[0].area = 400;
    pts[0].peak = 18.0;
    pts[1].cap = 10; // the 18-peak design does not qualify here
    pts[1].feasible = false;
    const std::vector<sweep_point> env = monotone_envelope(pts);
    EXPECT_FALSE(env[1].feasible);
}

TEST(explore, pareto_front_is_strictly_improving)
{
    const graph g = make_hal();
    const std::vector<sweep_point> pts = sweep(g, 17, power_grid(g, 17, 16));
    const std::vector<sweep_point> front = pareto_front(pts);
    ASSERT_FALSE(front.empty());
    for (std::size_t i = 1; i < front.size(); ++i) {
        EXPECT_GT(front[i].peak, front[i - 1].peak);
        EXPECT_LT(front[i].area, front[i - 1].area);
    }
    // Every front point must be feasible and undominated by any other point.
    for (const sweep_point& f : front) {
        EXPECT_TRUE(f.feasible);
        for (const sweep_point& p : pts) {
            if (!p.feasible) continue;
            EXPECT_FALSE(p.peak <= f.peak && p.area < f.area - 1e-9);
        }
    }
}

TEST(explore, pareto_front_of_infeasible_sweep_is_empty)
{
    std::vector<sweep_point> pts(3);
    EXPECT_TRUE(pareto_front(pts).empty());
}

TEST(explore, envelope_and_front_of_empty_input_are_empty)
{
    EXPECT_TRUE(monotone_envelope({}).empty());
    EXPECT_TRUE(pareto_front({}).empty());
}

TEST(explore, envelope_of_all_infeasible_sweep_stays_infeasible)
{
    std::vector<sweep_point> pts(4);
    for (std::size_t i = 0; i < pts.size(); ++i) pts[i].cap = 2.0 + double(i);
    const std::vector<sweep_point> env = monotone_envelope(pts);
    ASSERT_EQ(env.size(), pts.size());
    for (const sweep_point& p : env) EXPECT_FALSE(p.feasible);
}

TEST(explore, pareto_front_keeps_one_of_duplicate_peak_points)
{
    // Three feasible designs share one peak; only the cheapest survives,
    // and a strictly dominated fourth point is dropped.
    std::vector<sweep_point> pts(4);
    for (sweep_point& p : pts) p.feasible = true;
    pts[0].peak = 8.0;
    pts[0].area = 500;
    pts[1].peak = 8.0;
    pts[1].area = 450;
    pts[2].peak = 8.0;
    pts[2].area = 480;
    pts[3].peak = 9.0; // higher peak AND higher area than pts[1]
    pts[3].area = 470;
    const std::vector<sweep_point> front = pareto_front(pts);
    ASSERT_EQ(front.size(), 1u);
    EXPECT_DOUBLE_EQ(front[0].peak, 8.0);
    EXPECT_DOUBLE_EQ(front[0].area, 450);
}

TEST(explore, envelope_breaks_area_ties_by_lower_peak)
{
    // Two designs with equal area qualify under cap 12; the envelope
    // must pick the lower-peak one (duplicate-area tie rule).
    std::vector<sweep_point> pts(3);
    pts[0].cap = 10;
    pts[0].feasible = true;
    pts[0].area = 400;
    pts[0].peak = 9.0;
    pts[1].cap = 11;
    pts[1].feasible = true;
    pts[1].area = 400;
    pts[1].peak = 10.5;
    pts[2].cap = 12;
    pts[2].feasible = false;
    const std::vector<sweep_point> env = monotone_envelope(pts);
    ASSERT_TRUE(env[2].feasible);
    EXPECT_DOUBLE_EQ(env[2].area, 400);
    EXPECT_DOUBLE_EQ(env[2].peak, 9.0);
}

TEST(explore, sweep_is_identical_across_thread_counts)
{
    const graph g = make_hal();
    const std::vector<double> caps = power_grid(g, 17, 10);
    const std::vector<sweep_point> seq = sweep(g, 17, caps, 1);
    for (int threads : {2, 4}) {
        const std::vector<sweep_point> par = sweep(g, 17, caps, threads);
        ASSERT_EQ(par.size(), seq.size());
        for (std::size_t i = 0; i < seq.size(); ++i) {
            EXPECT_EQ(par[i].feasible, seq[i].feasible);
            EXPECT_DOUBLE_EQ(par[i].cap, seq[i].cap);
            EXPECT_DOUBLE_EQ(par[i].area, seq[i].area);
            EXPECT_DOUBLE_EQ(par[i].peak, seq[i].peak);
            EXPECT_EQ(par[i].latency, seq[i].latency);
        }
    }
}

} // namespace
} // namespace phls
