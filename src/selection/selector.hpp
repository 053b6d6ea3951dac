// Selector: a strategy that decides, at every step of a series walk, which
// pool member gets to make the forecast.
//
// This layer is where the paper and its baselines differ:
//   * KnnSelector      — the LARPredictor: classify the current window (§6.2);
//   * CumulativeMse    — the NWS model: lowest cumulative MSE so far (§2);
//   * WindowedCumMse   — NWS with a fixed error window (Fig. 6, "W-Cum.MSE");
//   * StaticSelector   — a single fixed expert (the LAST/AR/SW_AVG rows);
//   * OracleSelector   — the "perfect LARPredictor" P-LAR upper bound, which
//                        is deliberately non-causal (see needs_hindsight()).
//
// Protocol per step t: the runner calls select(window) to get a causal
// choice, lets the chosen predictor forecast, then — once the actual value
// materializes — calls record(forecasts, actual) with the forecasts of ALL
// pool members so error-tracking selectors can update their statistics.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace larp::selection {

class Selector {
 public:
  virtual ~Selector() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Clears accumulated state (between folds / traces).
  virtual void reset();

  /// Causal choice of the pool label for the upcoming step, given the
  /// current normalized window (most recent value last).
  [[nodiscard]] virtual std::size_t select(std::span<const double> window) = 0;

  /// Soft selection: a weight per pool member (non-negative, summing to 1)
  /// for probability-weighted forecast combination — the "probability-based
  /// voting" combination strategy of the paper's §2 citations.  The default
  /// is the one-hot vector of select(); the k-NN selector returns its
  /// neighbour vote shares.
  [[nodiscard]] virtual std::vector<double> select_weights(
      std::span<const double> window, std::size_t pool_size);

  /// Allocation-free soft selection into caller-owned storage (resized to
  /// pool_size; no reallocation once capacity is established).  The default
  /// writes the one-hot vector of select(); hot-path selectors (k-NN)
  /// override it to reuse their internal scratch.
  virtual void select_weights_into(std::span<const double> window,
                                   std::size_t pool_size,
                                   std::vector<double>& out);

  /// Post-step feedback: the forecasts every pool member produced for this
  /// step, and the value that actually materialized.
  virtual void record(std::span<const double> forecasts, double actual);

  /// Online learning hook: absorbs one freshly labeled window into the
  /// selector's knowledge (classification selectors grow their index;
  /// error-tracking selectors have nothing to learn — default no-op).
  virtual void learn(std::span<const double> window, std::size_t label);

  /// True when learn() actually does something.
  [[nodiscard]] virtual bool supports_online_learning() const noexcept;

  /// True for selectors whose choice is defined in hindsight (the oracle).
  /// The runner must then score select_hindsight() instead of select().
  [[nodiscard]] virtual bool needs_hindsight() const noexcept;

  /// Hindsight choice: label with the smallest absolute forecast error,
  /// lowest label on ties.  Default implementation provided so any selector
  /// can be asked "what would the oracle have done".
  [[nodiscard]] virtual std::size_t select_hindsight(
      std::span<const double> forecasts, double actual) const;

  [[nodiscard]] virtual std::unique_ptr<Selector> clone() const = 0;
};

/// Label of the smallest value with lowest-index tie-breaking — the shared
/// argmin convention (paper class order LAST < AR < SW_AVG).  Non-finite
/// entries never win: a NaN/inf value is skipped, and only when EVERY entry
/// is non-finite does the call throw InvalidArgument (a label picked from
/// garbage would silently corrupt training labels and QA error history).
[[nodiscard]] std::size_t argmin_label(std::span<const double> values);

/// Label whose forecast has the smallest |forecast - actual|.  Non-finite
/// forecasts (a NaN from a mis-fitted expert) are skipped with the same
/// all-non-finite InvalidArgument guard as argmin_label — previously a NaN
/// at index 0 poisoned every `error < best_error` comparison and pinned the
/// hindsight label to 0.
[[nodiscard]] std::size_t best_forecast_label(std::span<const double> forecasts,
                                              double actual);

}  // namespace larp::selection
