// Incremental surrogate model for guided exploration.
//
// A hand-rolled, dependency-free regularised linear model over features
// derived from a constraint point (latency cap, power cap, their logs,
// inverses and product, plus the library's power-level bucket of the
// cap), fitted online from the metric records a dse::session already
// accumulates.  One model per target:
//
//   * feasibility — P(point synthesises), trained on every row;
//   * peak / area / lifetime — achieved metrics, trained on ok rows.
//
// The model is the *steering* half of session::explore_guided: it
// orders unevaluated points best-predicted-first and nominates points
// whose optimistic (mean - margin * sigma) prediction is still
// dominated by the running front for skipping.  It never decides the
// front — every point the model cannot confidently rule out is exactly
// re-evaluated, so the guided front is gated byte-identical to the
// eager walk ("surrogate steers, never decides").
//
// Numerics: linear_model accumulates *raw* moments (n, Σx, Σxxᵀ, Σxy,
// Σy, Σy²) and standardises analytically at solve time — the fit after
// n observe() calls is exactly the batch z-scored ridge solution over
// the same n rows, whatever the arrival order.  That equivalence is
// pinned by a differential test against a closed-form least-squares
// oracle to 1e-9.
#pragma once

#include <cstddef>
#include <vector>

#include "flow/flow.h"
#include "library/library.h"
#include "synth/synthesizer.h"

namespace phls::dse {

/// One prediction: mean and a conservative 1-sigma half-width
/// (residual RMS inflated by the point's leverage, so extrapolated
/// points get wider bands).
struct prediction {
    double mean = 0.0;
    double sigma = 0.0;
};

/// Incremental ridge regression on z-scored features.  observe() costs
/// O(d^2); the (lazy) refit costs O(d^3) with d fixed and small.
/// @throws phls::error when an observed row carries a non-finite
/// feature or target value.
class linear_model {
public:
    /// `dim` features, ridge strength `lambda` (> 0) applied to the
    /// standardised normal equations as lambda * n * I.  `prior_sd`
    /// floors the residual-variance estimate at
    /// max(var(y), prior_sd^2) / n: a degenerate fit (e.g. every target
    /// identical, RSS = 0) still reports honest parameter uncertainty
    /// instead of a zero band.
    explicit linear_model(std::size_t dim, double lambda = 1e-6,
                          double prior_sd = 0.0);

    /// Folds one (features, target) row into the raw moments.
    void observe(const std::vector<double>& x, double y);

    /// Rows observed so far.
    std::size_t rows() const { return n_; }

    /// Mean and leverage-inflated sigma at `x`; refits lazily when rows
    /// arrived since the last fit.  With zero rows the prediction is
    /// mean 0 with an infinite sigma.
    prediction predict(const std::vector<double>& x) const;

    /// The fitted standardised weights (for tests and benches).
    std::vector<double> weights() const;
    /// Residual RMS of the current fit (for tests and benches).
    double residual_rms() const;

private:
    void refit() const;
    std::size_t dim_;
    double lambda_;
    double prior_sd_;
    std::size_t n_ = 0;
    std::vector<double> sx_;  ///< Σ x_i
    std::vector<double> sxx_; ///< Σ x_i x_j, row-major dim_ x dim_
    std::vector<double> sxy_; ///< Σ x_i y
    double sy_ = 0.0;         ///< Σ y
    double syy_ = 0.0;        ///< Σ y²

    // Fit state, rebuilt lazily from the moments.
    mutable bool dirty_ = true;
    mutable std::vector<double> mean_;   ///< feature means
    mutable std::vector<double> scale_;  ///< feature standard deviations (>= tiny)
    mutable std::vector<double> chol_;   ///< Cholesky factor of (Ã + λnI)
    mutable std::vector<double> w_;      ///< standardised weights
    mutable double ybar_ = 0.0;
    mutable double sigma2_ = 0.0;        ///< residual variance estimate
    mutable double var_floor_ = 0.0;     ///< max(var(y), prior_sd^2) / n
};

/// Surrogate-construction knobs (forwarded from guided_options).
struct surrogate_options {
    double ridge = 1e-6;        ///< linear_model lambda; must be > 0
    std::size_t min_rows = 24;  ///< rows before any model claims readiness
};

/// What the surrogate says about one constraint point.
struct estimate {
    bool ready = false;         ///< the feasibility model has enough rows
    bool metrics_ready = false; ///< the metric models have enough ok rows
    prediction feasible;        ///< P(point synthesises), roughly in [0, 1]
    prediction peak;
    prediction area;
    prediction lifetime;        ///< meaningful only when trained with lifetimes
};

/// The per-target model bundle used by session::explore_guided: builds
/// the feature vector from a constraint point and the module library,
/// and trains from the metric projection of finished reports.
class surrogate {
public:
    /// `lib` supplies the power-level bucket feature and a finite
    /// stand-in ceiling for unbounded power caps; `with_lifetime`
    /// enables the lifetime target.
    surrogate(const module_library& lib, bool with_lifetime,
              const surrogate_options& opts = {});

    /// Folds one finished row in.  Every row trains the feasibility
    /// model; ok rows additionally train the metric models.
    /// @throws phls::error on non-finite metrics — a poisoned training
    /// row must fail loudly, not silently skew the fit.
    void train(const metric_record& row);

    /// Predicts the outcome at `c`; `ready` / `metrics_ready` flag
    /// whether enough rows arrived for the bands to mean anything.
    estimate predict(const synthesis_constraints& c) const;

    /// The feasibility model has at least min_rows rows.
    bool ready() const;

    /// Rows train()ed so far (all / with an ok status).
    std::size_t rows() const { return rows_; }
    std::size_t ok_rows() const { return ok_rows_; }

    /// The feature vector of a point (for tests).
    std::vector<double> features(const synthesis_constraints& c) const;

private:
    surrogate_options opts_;
    bool with_lifetime_;
    std::vector<double> power_levels_; ///< sorted distinct module powers
    double cap_ceiling_;               ///< finite stand-in for unbounded caps
    std::size_t rows_ = 0;
    std::size_t ok_rows_ = 0;
    std::size_t lifetime_rows_ = 0;
    linear_model feasible_;
    linear_model peak_;
    linear_model area_;
    linear_model lifetime_;
};

} // namespace phls::dse
