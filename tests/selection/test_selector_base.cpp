// Tests for the Selector base hardening: non-finite handling in the shared
// labeling helpers, select_weights_into's validate-before-write contract and
// the EwmaMseSelector cold start.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "selection/nws_selector.hpp"
#include "selection/static_selector.hpp"
#include "util/error.hpp"

namespace larp::selection {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> window5() { return {1.0, 2.0, 3.0, 2.0, 1.0}; }

// -- NaN-labeling regression (selector.cpp) ---------------------------------
//
// A NaN forecast at index 0 used to poison every `error < best_error`
// comparison (NaN compares false), silently pinning the hindsight label to 0.

TEST(BestForecastLabel, SkipsNaNAtIndexZero) {
  const std::vector<double> forecasts = {kNaN, 1.0, 5.0};
  EXPECT_EQ(best_forecast_label(forecasts, 0.0), 1u);
}

TEST(BestForecastLabel, SkipsNaNInTheMiddle) {
  const std::vector<double> forecasts = {5.0, kNaN, 1.0};
  EXPECT_EQ(best_forecast_label(forecasts, 0.0), 2u);
}

TEST(BestForecastLabel, SkipsInfiniteForecasts) {
  const std::vector<double> forecasts = {kInf, -kInf, 3.0};
  EXPECT_EQ(best_forecast_label(forecasts, 0.0), 2u);
}

TEST(BestForecastLabel, ThrowsWhenAllForecastsNonFinite) {
  const std::vector<double> forecasts = {kNaN, kInf, -kInf};
  EXPECT_THROW((void)best_forecast_label(forecasts, 0.0), InvalidArgument);
}

TEST(BestForecastLabel, NonFiniteActualThrows) {
  // Every |forecast - NaN| is NaN, so the all-non-finite guard fires.
  const std::vector<double> forecasts = {1.0, 2.0};
  EXPECT_THROW((void)best_forecast_label(forecasts, kNaN), InvalidArgument);
}

TEST(ArgminLabel, SkipsNonFiniteValues) {
  const std::vector<double> values = {kNaN, 4.0, 2.0};
  EXPECT_EQ(argmin_label(values), 2u);
}

TEST(ArgminLabel, ThrowsWhenAllValuesNonFinite) {
  const std::vector<double> values = {kNaN, kNaN};
  EXPECT_THROW((void)argmin_label(values), InvalidArgument);
}

TEST(ArgminLabel, LowestLabelWinsTies) {
  const std::vector<double> values = {kNaN, 1.0, 1.0};
  EXPECT_EQ(argmin_label(values), 1u);
}

// -- select_weights_into hardening ------------------------------------------

// A selector that misbehaves: select() returns a label outside the pool.
class RogueSelector final : public Selector {
 public:
  [[nodiscard]] std::string name() const override { return "Rogue"; }
  [[nodiscard]] std::size_t select(std::span<const double>) override {
    return 99;
  }
  [[nodiscard]] std::unique_ptr<Selector> clone() const override {
    return std::make_unique<RogueSelector>();
  }
};

TEST(SelectWeightsInto, ValidatesBeforeTouchingOutput) {
  RogueSelector rogue;
  std::vector<double> out = {0.25, 0.75};  // pre-existing caller state
  const auto win = window5();
  EXPECT_THROW(rogue.select_weights_into(win, 2, out), InvalidArgument);
  // The buffer must be untouched by the failed call — previously it was
  // cleared and zero-filled before the pick was validated.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 0.25);
  EXPECT_DOUBLE_EQ(out[1], 0.75);
}

TEST(SelectWeightsInto, DefaultWritesOneHot) {
  StaticSelector fixed(1);
  std::vector<double> out;
  const auto win = window5();
  fixed.select_weights_into(win, 3, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 0.0);
}

// -- EwmaMseSelector cold-start (nws_selector.cpp) --------------------------

TEST(EwmaMseSelector, FallsBackToZeroBeforeAnyFeedback) {
  EwmaMseSelector selector(3, 0.9);
  EXPECT_EQ(selector.select(window5()), 0u);
}

TEST(EwmaMseSelector, ScoredMembersBeatTheColdFallback) {
  EwmaMseSelector selector(3, 0.9);
  const std::vector<double> forecasts = {3.0, 1.0, 2.0};
  selector.record(forecasts, 0.0);
  EXPECT_EQ(selector.select(window5()), 1u);
}

TEST(EwmaMseSelector, CloneAndResetKeepSeenStateInParity) {
  EwmaMseSelector selector(3, 0.9);
  const std::vector<double> forecasts = {3.0, 1.0, 2.0};
  selector.record(forecasts, 0.0);

  // clone() carries both the weighted errors AND the seen flags.
  auto copy = selector.clone();
  EXPECT_EQ(copy->select(window5()), selector.select(window5()));

  // reset() clears both, restoring the documented label-0 cold start.
  selector.reset();
  EXPECT_EQ(selector.select(window5()), 0u);
  for (double e : selector.errors()) EXPECT_DOUBLE_EQ(e, 0.0);
}

}  // namespace
}  // namespace larp::selection
