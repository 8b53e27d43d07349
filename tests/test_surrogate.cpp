// Property and fuzz tests for the surrogate-guided exploration stack.
//
// Two layers:
//
//   * linear_model — a differential oracle: the incremental updater must
//     match an independently coded closed-form least-squares solve on
//     the frozen design matrix to 1e-9, across randomised row streams,
//     row orders and feature scalings; non-finite rows are rejected
//     loudly.
//
//   * session::explore_guided — the identity contract ("surrogate
//     steers, never decides"): on deterministic grids and on randomised
//     spaces (grids, lists, cross, concat, 1-cell, duplicate-heavy) at
//     randomised margins and thread counts, the guided front must EQUAL
//     the eager front and the counters must partition the space
//     (computed + memo_served + skipped == size).  Plus the composition
//     and contract corners: refine+guided == refine+eager, binding eval
//     budgets, warm-start pretraining, sink exceptions, malformed
//     thread counts, option validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "cdfg/benchmarks.h"
#include "cdfg/random_dag.h"
#include "dse/session.h"
#include "dse/surrogate.h"
#include "flow/flow.h"
#include "support/errors.h"
#include "sweep_util.h"

namespace phls {
namespace {

const module_library& lib()
{
    static const module_library l = table1_library();
    return l;
}

constexpr double nan_v = std::numeric_limits<double>::quiet_NaN();
constexpr double inf_v = std::numeric_limits<double>::infinity();

// ------------------------------------------------- differential oracle

/// Independently coded batch fit of the SAME standardised ridge
/// formulation linear_model implements: centre/scale from population
/// statistics of the frozen design matrix, solve
/// (C_ij / (s_i s_j) + lambda n I) w = b by Gauss-Jordan with partial
/// pivoting (deliberately not Cholesky).
struct batch_fit {
    std::vector<double> mean, scale, w;
    double ybar = 0.0;
};

batch_fit closed_form_ridge(const std::vector<std::vector<double>>& X,
                            const std::vector<double>& y, double lambda)
{
    const std::size_t n = X.size();
    const std::size_t d = X.front().size();
    batch_fit f;
    f.mean.assign(d, 0.0);
    f.scale.assign(d, 1.0);
    f.w.assign(d, 0.0);
    for (const std::vector<double>& row : X)
        for (std::size_t i = 0; i < d; ++i) f.mean[i] += row[i];
    for (std::size_t i = 0; i < d; ++i) f.mean[i] /= static_cast<double>(n);
    for (const double v : y) f.ybar += v;
    f.ybar /= static_cast<double>(n);

    // Centred Gram and cross-moments computed the direct (two-pass)
    // way, not from raw moments.
    std::vector<double> cov(d * d, 0.0);
    std::vector<double> b(d, 0.0);
    for (std::size_t k = 0; k < n; ++k)
        for (std::size_t i = 0; i < d; ++i) {
            const double xi = X[k][i] - f.mean[i];
            b[i] += xi * (y[k] - f.ybar);
            for (std::size_t j = 0; j < d; ++j)
                cov[i * d + j] += xi * (X[k][j] - f.mean[j]);
        }
    for (std::size_t i = 0; i < d; ++i) {
        const double var = std::max(0.0, cov[i * d + i] / static_cast<double>(n));
        const double s = std::sqrt(var);
        f.scale[i] = s > 1e-12 ? s : 1.0;
    }

    std::vector<double> a(d * (d + 1), 0.0); // augmented [A | b]
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t j = 0; j < d; ++j)
            a[i * (d + 1) + j] = cov[i * d + j] / (f.scale[i] * f.scale[j]);
        a[i * (d + 1) + i] += lambda * static_cast<double>(n);
        a[i * (d + 1) + d] = b[i] / f.scale[i];
    }
    for (std::size_t col = 0; col < d; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < d; ++r)
            if (std::abs(a[r * (d + 1) + col]) > std::abs(a[pivot * (d + 1) + col]))
                pivot = r;
        for (std::size_t j = 0; j <= d; ++j)
            std::swap(a[col * (d + 1) + j], a[pivot * (d + 1) + j]);
        const double diag = a[col * (d + 1) + col];
        for (std::size_t r = 0; r < d; ++r) {
            if (r == col) continue;
            const double factor = a[r * (d + 1) + col] / diag;
            for (std::size_t j = col; j <= d; ++j)
                a[r * (d + 1) + j] -= factor * a[col * (d + 1) + j];
        }
    }
    for (std::size_t i = 0; i < d; ++i) f.w[i] = a[i * (d + 1) + d] / a[i * (d + 1) + i];
    return f;
}

double batch_predict(const batch_fit& f, const std::vector<double>& x)
{
    double mean = f.ybar;
    for (std::size_t i = 0; i < x.size(); ++i)
        mean += f.w[i] * (x[i] - f.mean[i]) / f.scale[i];
    return mean;
}

TEST(linear_model, matches_closed_form_least_squares_to_1e9)
{
    std::mt19937 rng(12345);
    std::uniform_real_distribution<double> unit(-1.0, 1.0);
    for (const std::size_t d : {2u, 5u, 8u}) {
        for (const std::size_t n : {5u, 37u, 200u}) {
            // Random design with wildly different column scales, random
            // true weights, small noise.
            std::vector<double> col_scale(d);
            for (double& s : col_scale)
                s = std::pow(10.0, std::floor(unit(rng) * 3.0));
            std::vector<double> truth(d);
            for (double& w : truth) w = unit(rng) * 2.0;
            std::vector<std::vector<double>> X;
            std::vector<double> y;
            for (std::size_t k = 0; k < n; ++k) {
                std::vector<double> x(d);
                double t = 0.5;
                for (std::size_t i = 0; i < d; ++i) {
                    x[i] = unit(rng) * col_scale[i];
                    t += truth[i] * x[i] / col_scale[i];
                }
                X.push_back(x);
                y.push_back(t + unit(rng) * 0.01);
            }

            const double lambda = 1e-6;
            dse::linear_model model(d, lambda);
            for (std::size_t k = 0; k < n; ++k) model.observe(X[k], y[k]);
            const batch_fit ref = closed_form_ridge(X, y, lambda);

            const std::vector<double> w = model.weights();
            ASSERT_EQ(w.size(), d);
            for (std::size_t i = 0; i < d; ++i)
                EXPECT_NEAR(w[i], ref.w[i], 1e-9 * (1.0 + std::abs(ref.w[i])))
                    << "d=" << d << " n=" << n << " i=" << i;
            for (std::size_t k = 0; k < std::min<std::size_t>(n, 16); ++k) {
                const double want = batch_predict(ref, X[k]);
                EXPECT_NEAR(model.predict(X[k]).mean, want,
                            1e-9 * (1.0 + std::abs(want)));
            }
        }
    }
}

TEST(linear_model, fit_is_invariant_to_row_order)
{
    std::mt19937 rng(99);
    std::uniform_real_distribution<double> unit(-1.0, 1.0);
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    for (int k = 0; k < 64; ++k) {
        std::vector<double> x = {unit(rng), unit(rng) * 100.0, unit(rng) * 0.01};
        y.push_back(3.0 * x[0] - x[1] * 0.01 + unit(rng) * 0.1);
        X.push_back(std::move(x));
    }
    dse::linear_model in_order(3);
    for (std::size_t k = 0; k < X.size(); ++k) in_order.observe(X[k], y[k]);

    std::vector<std::size_t> perm(X.size());
    for (std::size_t k = 0; k < perm.size(); ++k) perm[k] = k;
    std::shuffle(perm.begin(), perm.end(), rng);
    dse::linear_model shuffled(3);
    for (const std::size_t k : perm) shuffled.observe(X[k], y[k]);

    const std::vector<double> a = in_order.weights();
    const std::vector<double> b = shuffled.weights();
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a[i], b[i], 1e-9 * (1.0 + std::abs(a[i])));
    EXPECT_NEAR(in_order.residual_rms(), shuffled.residual_rms(),
                1e-9 * (1.0 + in_order.residual_rms()));
}

TEST(linear_model, column_rescaling_leaves_predictions_unchanged)
{
    // z-scoring makes the fit invariant to positive column rescaling:
    // scaling column j scales its mean and sd together, so the
    // standardised design is bit-for-bit the same maths.
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> unit(-1.0, 1.0);
    std::vector<std::vector<double>> X;
    std::vector<double> y;
    for (int k = 0; k < 48; ++k) {
        std::vector<double> x = {unit(rng), unit(rng), unit(rng)};
        y.push_back(x[0] - 2.0 * x[1] + 0.5 * x[2] + unit(rng) * 0.05);
        X.push_back(std::move(x));
    }
    dse::linear_model plain(3);
    dse::linear_model scaled(3);
    const std::vector<double> factor = {1e3, 1.0, 1e-4};
    for (std::size_t k = 0; k < X.size(); ++k) {
        plain.observe(X[k], y[k]);
        std::vector<double> xs = X[k];
        for (std::size_t i = 0; i < xs.size(); ++i) xs[i] *= factor[i];
        scaled.observe(xs, y[k]);
    }
    for (std::size_t k = 0; k < X.size(); ++k) {
        std::vector<double> xs = X[k];
        for (std::size_t i = 0; i < xs.size(); ++i) xs[i] *= factor[i];
        const dse::prediction a = plain.predict(X[k]);
        const dse::prediction b = scaled.predict(xs);
        EXPECT_NEAR(a.mean, b.mean, 1e-9 * (1.0 + std::abs(a.mean)));
        EXPECT_NEAR(a.sigma, b.sigma, 1e-9 * (1.0 + a.sigma));
    }
}

TEST(linear_model, rejects_non_finite_rows_and_queries)
{
    dse::linear_model model(2);
    EXPECT_THROW(model.observe({nan_v, 1.0}, 0.0), error);
    EXPECT_THROW(model.observe({1.0, inf_v}, 0.0), error);
    EXPECT_THROW(model.observe({1.0, 1.0}, nan_v), error);
    EXPECT_THROW(model.observe({1.0, 1.0}, -inf_v), error);
    EXPECT_THROW(model.observe({1.0}, 0.0), error); // wrong arity
    model.observe({1.0, 2.0}, 3.0);
    EXPECT_EQ(model.rows(), 1u); // rejected rows were not folded in
    EXPECT_THROW(model.predict({nan_v, 1.0}), error);
    EXPECT_THROW(model.predict({1.0}), error);
}

TEST(linear_model, empty_and_degenerate_fits_keep_honest_sigma)
{
    dse::linear_model empty(2);
    EXPECT_TRUE(std::isinf(empty.predict({0.0, 0.0}).sigma));

    // Every target identical: RSS is 0 but the band must not collapse
    // below the prior floor.
    dse::linear_model flat(2, 1e-6, 0.5);
    for (int k = 0; k < 30; ++k)
        flat.observe({static_cast<double>(k), static_cast<double>(k % 5)}, 1.0);
    const dse::prediction p = flat.predict({3.0, 2.0});
    EXPECT_NEAR(p.mean, 1.0, 1e-6);
    EXPECT_GE(p.sigma, 0.5 / std::sqrt(30.0) * 0.99);

    // Extrapolating far off the training cloud must widen the band.
    const dse::prediction near = flat.predict({3.0, 2.0});
    const dse::prediction far = flat.predict({3000.0, 2000.0});
    EXPECT_GT(far.sigma, near.sigma);
}

TEST(surrogate, rejects_poisoned_training_rows)
{
    dse::surrogate s(lib(), false, {});
    metric_record ok_row;
    ok_row.constraints = {17, 8.0};
    ok_row.has_design = true;
    ok_row.peak = 5.0;
    ok_row.area = 400.0;
    s.train(ok_row);
    EXPECT_EQ(s.rows(), 1u);
    EXPECT_EQ(s.ok_rows(), 1u);

    metric_record bad = ok_row;
    bad.peak = nan_v;
    EXPECT_THROW(s.train(bad), error);
    bad = ok_row;
    bad.area = inf_v;
    EXPECT_THROW(s.train(bad), error);
    bad = ok_row;
    bad.has_lifetime = true;
    bad.lifetime_seconds = nan_v;
    EXPECT_THROW(dse::surrogate(lib(), true, {}).train(bad), error);

    // A *failed* row's metrics are never read, so garbage there is fine.
    metric_record failed;
    failed.st.code = status_code::infeasible;
    failed.constraints = {17, 0.5};
    s.train(failed);
    EXPECT_EQ(s.rows(), 2u);
    EXPECT_EQ(s.ok_rows(), 1u);
}

TEST(surrogate, readiness_needs_min_rows)
{
    dse::surrogate s(lib(), false, {1e-6, 4});
    metric_record row;
    row.constraints = {17, 8.0};
    row.has_design = true;
    row.peak = 5.0;
    row.area = 400.0;
    for (int k = 0; k < 3; ++k) {
        EXPECT_FALSE(s.ready());
        row.constraints.max_power = 4.0 + k;
        s.train(row);
    }
    EXPECT_FALSE(s.ready());
    row.constraints.max_power = 9.0;
    s.train(row);
    EXPECT_TRUE(s.ready());
    EXPECT_TRUE(s.predict({17, 6.0}).ready);

    EXPECT_THROW(dse::surrogate(lib(), false, {1e-6, 1}), error);  // min_rows < 2
    EXPECT_THROW(dse::surrogate(lib(), false, {0.0, 24}), error);  // ridge <= 0
}

TEST(surrogate, unbounded_caps_produce_finite_features)
{
    const dse::surrogate s(lib(), false, {});
    const std::vector<double> x = s.features({17, unbounded_power});
    for (const double v : x) EXPECT_TRUE(std::isfinite(v));
    // The ceiling keeps "no cap" ordered above every reachable cap.
    EXPECT_GT(x[1], s.features({17, 20.0})[1]);
}

// --------------------------------------------- guided == eager identity

/// Runs eager and guided sessions over `s` from the same prototype and
/// asserts the identity contract and the counter partition.
void expect_guided_identity(const flow& proto, const dse::space& s,
                            const dse::guided_options& go, int threads,
                            const char* what)
{
    dse::session eager(proto);
    const dse::explore_summary ref = eager.explore(s, {}, threads);

    dse::session guided(proto);
    const dse::guided_summary sum = guided.explore_guided(s, go, {}, threads);

    EXPECT_EQ(sum.front, ref.front) << what;
    EXPECT_EQ(sum.computed + sum.memo_served + sum.skipped, sum.space_size) << what;
    EXPECT_EQ(sum.evaluated, sum.computed + sum.memo_served) << what;
    EXPECT_EQ(sum.space_size, s.size()) << what;
}

TEST(guided, small_grid_below_min_train_is_byte_identical)
{
    // 12 points < min_train: the model never becomes ready, nothing is
    // pruned, and the walk degenerates to the eager one — at every
    // margin and thread count.
    const dse::space s = dse::grid({17, 19, 2}, {2.0, 9.0, 6});
    ASSERT_EQ(s.size(), 12u);
    for (const double margin : {0.0, 1.0, 3.0})
        for (const int threads : {1, 2}) {
            dse::guided_options go;
            go.margin = margin;
            expect_guided_identity(hal17(), s, go, threads, "small grid");
        }
}

TEST(guided, plane_fronts_identical_across_thread_counts)
{
    const dse::space s =
        dse::cross({17, 19, 21}, dse::power_range{2.0, 16.0, 40}.values());
    dse::guided_options go;
    go.batch = 32; // let pruning engage within 120 points
    for (const int threads : {1, 2, 8})
        expect_guided_identity(hal17(), s, go, threads, "hal plane");
}

TEST(guided, pruning_engages_and_preserves_the_front)
{
    // A single-T cap sweep long enough that the surrogate actually
    // skips most of it; the gate is that it skipped a lot AND changed
    // nothing.
    const dse::space s = dse::cross({17}, dse::power_range{2.0, 20.0, 400}.values());
    dse::session eager(hal17());
    const dse::explore_summary ref = eager.explore(s, {}, 2);

    dse::session guided(hal17());
    dse::guided_options go;
    go.batch = 64;
    const dse::guided_summary sum = guided.explore_guided(s, go, {}, 2);
    EXPECT_EQ(sum.front, ref.front);
    EXPECT_EQ(sum.computed + sum.memo_served + sum.skipped, sum.space_size);
    EXPECT_GT(sum.skipped, s.size() / 4) << "pruning never engaged";
    EXPECT_GT(sum.verified, 0u);
    EXPECT_GE(sum.rounds, 2u);
}

TEST(guided, property_fuzz_random_spaces_margins_threads)
{
    // Randomised spaces over random DAGs: grids, crosses,
    // duplicate-heavy lists, concatenations and 1-cell spaces, at
    // random margins in the gated regime (>= default) and 1/2/8
    // threads.  Everything is seeded: a failure reproduces exactly.
    std::mt19937 rng(20260808);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const int threads_of[3] = {1, 2, 8};
    for (int draw = 0; draw < 6; ++draw) {
        random_dag_params params;
        params.operations = 8 + static_cast<int>(rng() % 8);
        params.inputs = 2 + static_cast<int>(rng() % 3);
        params.layers = 3 + static_cast<int>(rng() % 3);
        const graph g = random_dag(params, 1000 + draw);
        const int T = 6 + static_cast<int>(rng() % 12);
        const flow proto = flow::on(g).with_library(lib()).latency(T);

        dse::space s = dse::list({{T, 8.0}});
        const int kind = static_cast<int>(rng() % 5);
        if (kind == 0) {
            s = dse::grid({T, T + 3, 1}, {1.0 + unit(rng), 14.0, 10});
        } else if (kind == 1) {
            s = dse::cross({T, T + 2},
                           dse::power_range{2.0, 10.0 + 6.0 * unit(rng), 25}.values());
        } else if (kind == 2) {
            // Duplicate-heavy list: every point appears twice, plus an
            // unbounded-cap point.
            std::vector<synthesis_constraints> pts;
            for (int k = 0; k < 20; ++k)
                pts.push_back({T + static_cast<int>(rng() % 3),
                               1.0 + 12.0 * unit(rng)});
            pts.push_back({T, unbounded_power});
            const std::vector<synthesis_constraints> once = pts;
            pts.insert(pts.end(), once.begin(), once.end());
            s = dse::list(std::move(pts));
        } else if (kind == 3) {
            s = dse::concat(
                dse::cross({T}, dse::power_range{2.0, 9.0, 12}.values()),
                dse::grid({T + 1, T + 2, 1}, {3.0, 11.0, 8}));
        } // kind == 4: the 1-cell space above

        dse::guided_options go;
        go.margin = 3.0 + 3.0 * unit(rng);
        go.batch = 16 + rng() % 48;
        const int threads = threads_of[rng() % 3];
        const std::string what = "draw " + std::to_string(draw) + " kind " +
                                 std::to_string(kind) + " T " + std::to_string(T);
        SCOPED_TRACE(what);
        expect_guided_identity(proto, s, go, threads, what.c_str());
    }
}

TEST(guided, duplicate_points_are_served_from_the_memo)
{
    // Exact duplicates must not cost a second synthesis: the copy is
    // served whole by the report memo — in the evaluate() scan when its
    // round comes later, or inside run_point when twin and copy share a
    // batch — or pruned with its twin.  Front tie-breaking (lowest
    // index wins) must match the eager walk's exactly.
    std::vector<synthesis_constraints> pts;
    for (double cap : hal17().power_grid(30)) pts.push_back({17, cap});
    const std::vector<synthesis_constraints> once = pts;
    pts.insert(pts.end(), once.begin(), once.end());
    const dse::space s = dse::list(std::move(pts));

    dse::session eager(hal17());
    const dse::explore_summary ref = eager.explore(s, {}, 1);
    dse::session guided(hal17());
    dse::guided_options go;
    go.batch = 16;
    const dse::guided_summary sum = guided.explore_guided(s, go, {}, 1);
    EXPECT_EQ(sum.front, ref.front);
    EXPECT_EQ(sum.computed + sum.memo_served + sum.skipped, sum.space_size);
    EXPECT_GT(guided.cache()->stats().report_hits, 0)
        << "no duplicate was served from the report memo";
}

TEST(guided, refine_composes_with_guided_training)
{
    // refine+guided == refine+eager: the surrogate trains from every
    // corner refine evaluates but never overrides refine's own skip
    // decisions.
    const dse::space s =
        dse::refine({17, 19, 21}, dse::power_range{2.0, 16.0, 17}.values());
    dse::session eager(hal17());
    const dse::explore_summary ref = eager.explore(s, {}, 2);

    dse::session guided(hal17());
    const dse::guided_summary sum = guided.explore_guided(s, {}, {}, 2);
    EXPECT_EQ(sum.front, ref.front);
    EXPECT_EQ(sum.evaluated, ref.evaluated);
    EXPECT_EQ(sum.computed + sum.memo_served + sum.skipped, sum.space_size);
    EXPECT_GT(sum.trained_rows, 0u);
}

TEST(guided, binding_eval_budget_caps_exact_work)
{
    const dse::space s = dse::cross({17, 19}, dse::power_range{2.0, 18.0, 100}.values());
    dse::session session(hal17());
    dse::guided_options go;
    go.eval_budget = 30;
    go.batch = 16;
    const dse::guided_summary sum = session.explore_guided(s, go, {}, 1);
    EXPECT_LE(sum.computed, 30u);
    EXPECT_EQ(sum.computed + sum.memo_served + sum.skipped, sum.space_size);
    // The front over the evaluated subset is still a real front: every
    // point on it was exactly evaluated.
    for (const front_point& p : sum.front) EXPECT_LT(p.index, s.size());
}

TEST(guided, warm_session_serves_everything_from_the_memo)
{
    const dse::space s = dse::cross({17, 19}, dse::power_range{2.0, 14.0, 30}.values());
    dse::session session(hal17());
    const dse::explore_summary first = session.explore(s, {}, 2);

    // Same session, same space: the scan serves every point before the
    // guided loop starts, and pretraining sees the warm records.
    const dse::guided_summary sum = session.explore_guided(s, {}, {}, 2);
    EXPECT_EQ(sum.front, first.front);
    EXPECT_EQ(sum.memo_served, s.size());
    EXPECT_EQ(sum.computed, 0u);
    EXPECT_EQ(sum.skipped, 0u);
    EXPECT_GE(sum.trained_rows, s.size()); // pretraining folded the cache in
    EXPECT_EQ(sum.rounds, 0u);
}

TEST(guided, pretraining_can_be_disabled)
{
    const dse::space s = dse::cross({17}, dse::power_range{2.0, 14.0, 30}.values());
    dse::session session(hal17());
    session.explore(s, {}, 1);
    dse::guided_options go;
    go.pretrain_from_cache = false;
    const dse::guided_summary sum = session.explore_guided(s, go, {}, 1);
    EXPECT_EQ(sum.memo_served, s.size());
    // Without pretraining the scan's memo hits ARE the training rows.
    EXPECT_EQ(sum.trained_rows, s.size());
}

TEST(guided, malformed_thread_count_fails_every_point)
{
    // The explore contract: threads < 0 fails every point with
    // invalid_argument — guided must not prune or memo-serve around it.
    const dse::space s = dse::cross({17}, dse::power_range{2.0, 9.0, 8}.values());
    dse::session session(hal17());
    std::size_t failed = 0;
    dse::sink sk;
    sk.on_result = [&](std::size_t, const flow_report& r) {
        failed += r.st.code == status_code::invalid_argument ? 1 : 0;
    };
    const dse::guided_summary sum = session.explore_guided(s, {}, sk, -1);
    EXPECT_EQ(failed, s.size());
    EXPECT_EQ(sum.computed, s.size());
    EXPECT_EQ(sum.skipped, 0u);
}

TEST(guided, rejects_invalid_options)
{
    const dse::space s = dse::cross({17}, {8.0});
    dse::session session(hal17());
    dse::guided_options bad;
    bad.margin = -1.0;
    EXPECT_THROW(session.explore_guided(s, bad), error);
    bad = {};
    bad.batch = 0;
    EXPECT_THROW(session.explore_guided(s, bad), error);
    bad = {};
    bad.ridge = 0.0;
    EXPECT_THROW(session.explore_guided(s, bad), error);
    bad = {};
    bad.min_train = 1;
    EXPECT_THROW(session.explore_guided(s, bad), error);
}

TEST(guided, sink_exception_propagates_once_and_session_stays_usable)
{
    const dse::space s = dse::cross({17}, dse::power_range{2.0, 12.0, 20}.values());
    dse::session session(hal17());
    std::size_t delivered = 0;
    dse::sink sk;
    sk.on_result = [&](std::size_t, const flow_report&) {
        if (++delivered == 3) throw std::runtime_error("sink says no");
    };
    EXPECT_THROW(session.explore_guided(s, {}, sk, 1), std::runtime_error);
    EXPECT_EQ(delivered, 3u);

    // The session (and its cache) must stay consistent: a clean rerun
    // delivers the full space and the true front.
    dse::session fresh(hal17());
    const dse::explore_summary ref = fresh.explore(s, {}, 1);
    const dse::guided_summary sum = session.explore_guided(s, {}, {}, 1);
    EXPECT_EQ(sum.front, ref.front);
    EXPECT_EQ(sum.computed + sum.memo_served + sum.skipped, sum.space_size);
}

TEST(guided, front_throw_also_propagates)
{
    const dse::space s = dse::cross({17}, dse::power_range{2.0, 12.0, 20}.values());
    dse::session session(hal17());
    dse::sink sk;
    sk.on_front = [](const front_delta&) { throw std::runtime_error("front says no"); };
    EXPECT_THROW(session.explore_guided(s, {}, sk, 1), std::runtime_error);
}

} // namespace
} // namespace phls
