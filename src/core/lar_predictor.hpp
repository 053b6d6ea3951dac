// LarPredictor: the paper's primary contribution (§6) — the Learning-Aided
// Adaptive Resource Predictor.
//
// Training phase (train()):
//   1. fit the z-score normalizer on the raw training series;
//   2. fit the pool's parametric members (AR via Yule–Walker);
//   3. walk the normalized series, run ALL pool members in parallel on each
//      window, and label the window with the member whose one-step forecast
//      had the smallest absolute error (the mix-of-expert labeling, §6.1);
//   4. fit PCA on the training windows and index the PCA-projected windows
//      with their labels in a k-NN classifier.
//
// Testing / online phase (observe() + predict_next()):
//   the current window is projected through the SAME normalizer and PCA,
//   classified by the k-NN majority vote, and ONLY the winning predictor is
//   run — the paper's efficiency claim over NWS-style parallel evaluation.
//
// Thread-safety / locking contract (relied on by serve::PredictionEngine):
//   a LarPredictor is NOT internally synchronized.  predict_next() is
//   non-const by design — the Selector interface is stateful in general and
//   predict_next() records the pending forecast for residual tracking — so
//   both the mutating entry points (train/retrain/observe/predict_next) and
//   the const accessors must be serialized under one external mutex per
//   predictor instance.  Distinct instances share no mutable state and may
//   be driven from different threads without any locking.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "ml/normalizer.hpp"
#include "ml/pca.hpp"
#include "predictors/pool.hpp"
#include "selection/selector.hpp"
#include "util/stats.hpp"

namespace larp::persist::io {
class Reader;
class Writer;
}  // namespace larp::persist::io

namespace larp::core {

class LarPredictor {
 public:
  /// Takes ownership of the expert pool (the paper's {LAST, AR, SW_AVG}, or
  /// any pool from predictors/pool.hpp).  Throws InvalidArgument for an
  /// empty pool or a zero window.
  LarPredictor(predictors::PredictorPool pool, LarConfig config);

  /// Full training pass on a raw series.  Requires at least
  /// window + 2 points (one labeled window plus one for the normalizer to
  /// see variance).  Leaves the predictor warm: the online window is the
  /// tail of the training series, so predict_next() continues seamlessly.
  void train(std::span<const double> raw_series);

  [[nodiscard]] bool trained() const noexcept { return selector_ != nullptr; }

  /// One forecast made by the selected expert only.
  struct Forecast {
    double value = 0.0;     // raw (de-normalized) predicted next value
    std::size_t label = 0;  // pool member that produced it
    /// One-sigma error estimate from the predictor's own recent online
    /// residuals (LarConfig::uncertainty_window); NaN until
    /// LarConfig::uncertainty_warmup() predict/observe pairs have resolved.
    /// Defaults to NaN so a default-constructed forecast can never pass for
    /// a zero-uncertainty (perfectly confident) one.
    double uncertainty = std::numeric_limits<double>::quiet_NaN();
  };

  /// Feeds one raw observation into the online window and the pool members'
  /// online state.  Throws StateError before train().
  void observe(double raw_value);

  /// Classifies the current window and runs only the winning expert.
  /// Throws StateError before train() or before `window` observations exist.
  /// (Non-const because the Selector interface is stateful in general.)
  [[nodiscard]] Forecast predict_next();

  /// predict_next() without the side effect: computes the same forecast but
  /// does NOT record it as the pending forecast for residual tracking, so the
  /// predictor's logical state is unchanged.  Replication followers serve
  /// reads through this path — the leader's own predict_next() stream stays
  /// the single source of the replicated residual history.  (Still non-const:
  /// selection shares the stateful Selector interface and scratch buffers.)
  [[nodiscard]] Forecast peek_next();

  /// Re-runs the training pass on fresh data (the Quality Assuror's
  /// re-training order, §3.2) — equivalent to train() but keeps the pool.
  void retrain(std::span<const double> recent_raw_series);

  // -- introspection -------------------------------------------------------
  [[nodiscard]] const LarConfig& config() const noexcept { return config_; }
  [[nodiscard]] const predictors::PredictorPool& pool() const noexcept {
    return pool_;
  }
  [[nodiscard]] const ml::ZScoreNormalizer& normalizer() const;
  /// The trained selection strategy (KnnSelector or CentroidSelector,
  /// per LarConfig::classifier).
  [[nodiscard]] const selection::Selector& selector() const;
  /// The PCA projection learned in the training phase.
  [[nodiscard]] const ml::Pca& pca() const;
  /// Best-predictor labels assigned to the training windows (§6.1).
  [[nodiscard]] const std::vector<std::size_t>& training_labels() const;
  /// Observations fed since construction (train() + observe()).
  [[nodiscard]] std::size_t observed_count() const noexcept {
    return observed_count_;
  }
  /// Resolved online predict/observe pairs backing Forecast::uncertainty.
  [[nodiscard]] std::size_t resolved_forecasts() const noexcept {
    return resolved_forecasts_;
  }
  /// Windows labeled and absorbed since training (online learning mode).
  [[nodiscard]] std::size_t online_windows_learned() const noexcept {
    return online_windows_learned_;
  }

  /// Serializes the full trained + online state (normalizer, PCA, selector
  /// index, residual trackers, pool member state) so a restored predictor
  /// continues the forecast sequence bit-identically.  load_state() must run
  /// against an instance constructed with the same pool composition and
  /// LarConfig — snapshots store state, not configuration.
  void save_state(persist::io::Writer& w) const;
  void load_state(persist::io::Reader& r);

 private:
  void require_trained() const;
  /// The window the chosen expert predicts from: a view of online_window_,
  /// or (predict_in_pca_space) the PCA-reconstructed window materialized in
  /// scratch_.window.  Never allocates in steady state.
  [[nodiscard]] std::span<const double> prediction_window();

  predictors::PredictorPool pool_;
  LarConfig config_;
  ml::ZScoreNormalizer normalizer_;
  ml::Pca pca_;
  std::unique_ptr<selection::Selector> selector_;
  std::vector<std::size_t> training_labels_;
  std::vector<double> online_window_;  // normalized, most recent last
  std::size_t observed_count_ = 0;

  // Online residual tracking for Forecast::uncertainty: the latest issued
  // forecast (raw units) is resolved against the next observation.
  std::optional<double> pending_forecast_;
  std::optional<stats::WindowedMse> residuals_;
  std::size_t resolved_forecasts_ = 0;

  // Online-learning state (config_.online_learning): windowed-MSE label
  // trackers continuing the training phase's labeling rule.
  std::vector<stats::WindowedMse> online_label_trackers_;
  std::size_t online_windows_learned_ = 0;

  // Per-step scratch: every observe()/predict_next() buffer lives here and
  // reuses its capacity across steps, so the steady-state hot path performs
  // zero heap allocations (asserted by the allocation-counter test).
  struct StepScratch {
    std::vector<double> forecasts;  // pool predict_all_into results
    std::vector<double> errors;     // per-member tracker errors for labeling
    std::vector<double> weights;    // soft-vote weights
    std::vector<double> reduced;    // PCA projection (predict_in_pca_space)
    std::vector<double> window;     // reconstructed window (pca-space mode)
  };
  StepScratch scratch_;
};

/// Labels every supervised window of a normalized series by running all pool
/// members in parallel (§6.1).  With Labeling::StepAbsoluteError the label is
/// the smallest-|error| member on the window's own target; with
/// Labeling::WindowMse it is the member with the lowest MSE over the last
/// `label_window` one-step forecasts (0 = use `window`).  The pool's online
/// state is walked in series order; the pool must already be fitted.
/// Exposed for the experiment runner and tests.
[[nodiscard]] std::vector<std::size_t> label_best_predictors(
    predictors::PredictorPool& pool, std::span<const double> normalized_series,
    std::size_t window, Labeling labeling = Labeling::WindowMse,
    std::size_t label_window = 0);

}  // namespace larp::core
