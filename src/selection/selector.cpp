#include "selection/selector.hpp"

#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace larp::selection {

void Selector::reset() {}

void Selector::record(std::span<const double> /*forecasts*/, double /*actual*/) {}

std::vector<double> Selector::select_weights(std::span<const double> window,
                                             std::size_t pool_size) {
  std::vector<double> weights;
  select_weights_into(window, pool_size, weights);
  return weights;
}

void Selector::select_weights_into(std::span<const double> window,
                                   std::size_t pool_size,
                                   std::vector<double>& out) {
  // Validate before touching `out`: select() may throw, and an out-of-pool
  // pick must not leave the caller's buffer half-clobbered on the throw.
  const std::size_t pick = select(window);
  if (pick >= pool_size) {
    throw InvalidArgument("select_weights: selected label outside the pool");
  }
  out.assign(pool_size, 0.0);
  out[pick] = 1.0;
}

void Selector::learn(std::span<const double> /*window*/, std::size_t /*label*/) {}

bool Selector::supports_online_learning() const noexcept { return false; }

bool Selector::needs_hindsight() const noexcept { return false; }

std::size_t Selector::select_hindsight(std::span<const double> forecasts,
                                       double actual) const {
  return best_forecast_label(forecasts, actual);
}

std::size_t argmin_label(std::span<const double> values) {
  if (values.empty()) throw InvalidArgument("argmin_label: empty values");
  // Non-finite entries are skipped: a NaN never compares less-than, so with
  // a naive scan a NaN seeded at index 0 would win by default and silently
  // mislabel.  `best` stays "none" until the first finite value.
  std::size_t best = values.size();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) continue;
    if (best == values.size() || values[i] < values[best]) best = i;
  }
  if (best == values.size()) {
    throw InvalidArgument("argmin_label: all values non-finite");
  }
  return best;
}

std::size_t best_forecast_label(std::span<const double> forecasts, double actual) {
  if (forecasts.empty()) {
    throw InvalidArgument("best_forecast_label: empty forecasts");
  }
  // Direct argmin — no temporary error vector; strict < keeps the lowest
  // label on ties, matching argmin_label's convention.  Non-finite errors
  // (NaN forecast, or a non-finite actual) are skipped so they can never
  // shadow a real winner; all-non-finite throws instead of returning a
  // fabricated label 0.
  std::size_t best = forecasts.size();
  double best_error = 0.0;
  for (std::size_t i = 0; i < forecasts.size(); ++i) {
    const double error = std::abs(forecasts[i] - actual);
    if (!std::isfinite(error)) continue;
    if (best == forecasts.size() || error < best_error) {
      best_error = error;
      best = i;
    }
  }
  if (best == forecasts.size()) {
    throw InvalidArgument("best_forecast_label: all forecast errors non-finite");
  }
  return best;
}

}  // namespace larp::selection
