// Tests for the selector strategy layer (oracle / NWS / windowed / static /
// k-NN).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ml/framing.hpp"
#include "selection/knn_selector.hpp"
#include "selection/nws_selector.hpp"
#include "selection/oracle_selector.hpp"
#include "selection/static_selector.hpp"
#include "util/error.hpp"

namespace larp::selection {
namespace {

const std::vector<double> kWindow{1.0, 2.0, 3.0};

TEST(ArgminLabel, SmallestWithLowIndexTies) {
  EXPECT_EQ(argmin_label(std::vector<double>{3, 1, 2}), 1u);
  EXPECT_EQ(argmin_label(std::vector<double>{1, 1, 1}), 0u);
  EXPECT_EQ(argmin_label(std::vector<double>{2, 1, 1}), 1u);
  EXPECT_THROW((void)argmin_label(std::vector<double>{}), InvalidArgument);
}

TEST(BestForecastLabel, ClosestToActual) {
  // forecasts {0.5, 2.0, 5.0} vs actual 1.8 -> label 1.
  EXPECT_EQ(best_forecast_label(std::vector<double>{0.5, 2.0, 5.0}, 1.8), 1u);
  // Exact tie in |error| resolves to the lower label.
  EXPECT_EQ(best_forecast_label(std::vector<double>{1.0, 3.0}, 2.0), 0u);
}

TEST(StaticSelector, AlwaysSameLabel) {
  StaticSelector sel(2, "SW_AVG");
  EXPECT_EQ(sel.select(kWindow), 2u);
  sel.record(std::vector<double>{0, 0, 100}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 2u);
  EXPECT_EQ(sel.name(), "STATIC(SW_AVG)");
  EXPECT_FALSE(sel.needs_hindsight());
  EXPECT_EQ(sel.clone()->select(kWindow), 2u);
}

TEST(OracleSelector, HindsightPicksSmallestError) {
  OracleSelector oracle;
  EXPECT_TRUE(oracle.needs_hindsight());
  EXPECT_EQ(oracle.select_hindsight(std::vector<double>{5.0, 1.1, 0.0}, 1.0), 1u);
}

TEST(OracleSelector, CausalModeIsPersistence) {
  OracleSelector oracle;
  EXPECT_EQ(oracle.select(kWindow), 0u);  // cold start
  oracle.record(std::vector<double>{9.0, 1.0}, 1.0);
  EXPECT_EQ(oracle.select(kWindow), 1u);  // last step's best
  oracle.reset();
  EXPECT_EQ(oracle.select(kWindow), 0u);
}

TEST(CumulativeMse, ValidatesPoolSize) {
  EXPECT_THROW(CumulativeMseSelector(0), InvalidArgument);
}

TEST(CumulativeMse, ColdStartPicksLabelZero) {
  CumulativeMseSelector sel(3);
  EXPECT_EQ(sel.select(kWindow), 0u);
}

TEST(CumulativeMse, TracksLowestCumulativeError) {
  CumulativeMseSelector sel(2);
  // Member 0 errs by 2 each step, member 1 by 1.
  sel.record(std::vector<double>{2.0, 1.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 1u);
  // One huge error for member 1 flips the cumulative ranking.
  sel.record(std::vector<double>{2.0, 10.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 0u);
  const auto errors = sel.errors();
  EXPECT_DOUBLE_EQ(errors[0], 4.0);
  EXPECT_DOUBLE_EQ(errors[1], (1.0 + 100.0) / 2.0);
}

TEST(CumulativeMse, CumulativeMemoryIsSlowToForgive) {
  // The paper's criticism: cumulative MSE adapts slowly after a regime
  // change because all history weighs in.
  CumulativeMseSelector cum(2);
  WindowedCumMseSelector win(2, 2);
  // Long stretch where member 0 is best.
  for (int i = 0; i < 50; ++i) {
    cum.record(std::vector<double>{0.1, 5.0}, 0.0);
    win.record(std::vector<double>{0.1, 5.0}, 0.0);
  }
  // Regime flips: member 1 becomes best.
  for (int i = 0; i < 3; ++i) {
    cum.record(std::vector<double>{5.0, 0.1}, 0.0);
    win.record(std::vector<double>{5.0, 0.1}, 0.0);
  }
  EXPECT_EQ(cum.select(kWindow), 0u);  // still stuck on stale history
  EXPECT_EQ(win.select(kWindow), 1u);  // windowed variant adapted
}

TEST(CumulativeMse, RecordValidatesForecastCount) {
  CumulativeMseSelector sel(3);
  EXPECT_THROW(sel.record(std::vector<double>{1.0}, 0.0), InvalidArgument);
}

TEST(CumulativeMse, ResetClearsHistory) {
  CumulativeMseSelector sel(2);
  sel.record(std::vector<double>{9.0, 0.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 1u);
  sel.reset();
  EXPECT_EQ(sel.select(kWindow), 0u);
}

TEST(CumulativeMse, CloneCarriesState) {
  CumulativeMseSelector sel(2);
  sel.record(std::vector<double>{9.0, 0.0}, 0.0);
  const auto copy = sel.clone();
  EXPECT_EQ(copy->select(kWindow), 1u);
}

TEST(EwmaMse, Validation) {
  EXPECT_THROW(EwmaMseSelector(0, 0.9), InvalidArgument);
  EXPECT_THROW(EwmaMseSelector(3, 0.0), InvalidArgument);
  EXPECT_THROW(EwmaMseSelector(3, 1.0), InvalidArgument);
}

TEST(EwmaMse, ColdStartPicksLabelZero) {
  EwmaMseSelector sel(3, 0.9);
  EXPECT_EQ(sel.select(kWindow), 0u);
}

TEST(EwmaMse, RecentErrorsDominateWithFastDecay) {
  // decay 0.1: essentially the last error decides.
  EwmaMseSelector sel(2, 0.1);
  for (int i = 0; i < 20; ++i) sel.record(std::vector<double>{0.1, 5.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 0u);
  sel.record(std::vector<double>{5.0, 0.1}, 0.0);  // one flip is enough
  EXPECT_EQ(sel.select(kWindow), 1u);
}

TEST(EwmaMse, SlowDecayApproachesCumulativeBehaviour) {
  // decay 0.995 barely forgets: after a long stretch favouring member 0,
  // a few contrary steps cannot flip it — same stickiness as Cum.MSE.
  EwmaMseSelector sel(2, 0.995);
  for (int i = 0; i < 200; ++i) sel.record(std::vector<double>{0.1, 5.0}, 0.0);
  for (int i = 0; i < 3; ++i) sel.record(std::vector<double>{5.0, 0.1}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 0u);
}

TEST(EwmaMse, RecordValidatesAndResets) {
  EwmaMseSelector sel(2, 0.5);
  EXPECT_THROW(sel.record(std::vector<double>{1.0}, 0.0), InvalidArgument);
  sel.record(std::vector<double>{9.0, 0.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 1u);
  sel.reset();
  EXPECT_EQ(sel.select(kWindow), 0u);
  EXPECT_EQ(sel.clone()->select(kWindow), 0u);
}

TEST(WindowedCumMse, NameIncludesWindow) {
  WindowedCumMseSelector sel(3, 2);
  EXPECT_EQ(sel.name(), "W-Cum.MSE(2)");
}

TEST(WindowedCumMse, OnlyRecentErrorsCount) {
  WindowedCumMseSelector sel(2, 2);
  sel.record(std::vector<double>{10.0, 0.0}, 0.0);  // member 0 bad
  sel.record(std::vector<double>{0.0, 0.1}, 0.0);
  sel.record(std::vector<double>{0.0, 0.1}, 0.0);
  // The window-2 view no longer contains member 0's disaster.
  EXPECT_EQ(sel.select(kWindow), 0u);
}

TEST(KnnSelector, RequiresFittedComponents) {
  EXPECT_THROW(KnnSelector(ml::Pca{}, ml::KnnClassifier{3}), InvalidArgument);
}

TEST(KnnSelector, ClassifiesWindowsThroughPca) {
  // Two window shapes: rising windows labeled 1, flat windows labeled 0.
  linalg::Matrix windows(40, 4);
  std::vector<std::size_t> labels(40);
  for (std::size_t i = 0; i < 40; ++i) {
    const bool rising = i % 2 == 0;
    for (std::size_t j = 0; j < 4; ++j) {
      windows(i, j) = rising ? static_cast<double>(j) +
                                   0.01 * static_cast<double>(i)
                             : 1.5 + 0.01 * static_cast<double>(i);
    }
    labels[i] = rising ? 1 : 0;
  }
  ml::Pca pca;
  pca.fit(windows, ml::PcaPolicy{2, 0.9});
  ml::KnnClassifier knn(3);
  knn.fit(pca.transform(windows), labels);
  KnnSelector sel(std::move(pca), std::move(knn));

  EXPECT_EQ(sel.select(std::vector<double>{0, 1, 2, 3}), 1u);
  EXPECT_EQ(sel.select(std::vector<double>{1.5, 1.5, 1.5, 1.5}), 0u);
  EXPECT_EQ(sel.name(), "LAR(kNN)");
  EXPECT_FALSE(sel.needs_hindsight());
  EXPECT_EQ(sel.clone()->select(std::vector<double>{0, 1, 2, 3}), 1u);
}

TEST(Selector, DefaultHindsightAvailableToAll) {
  StaticSelector sel(0);
  EXPECT_EQ(sel.select_hindsight(std::vector<double>{3.0, 1.0}, 1.2), 1u);
}

TEST(Selector, SelectWeightsMatchesSelectWeightsInto) {
  StaticSelector sel(1);
  std::vector<double> into = {7.0};  // stale caller state is replaced
  sel.select_weights_into(kWindow, 4, into);
  EXPECT_EQ(sel.select_weights(kWindow, 4), into);
  EXPECT_EQ(into, (std::vector<double>{0.0, 1.0, 0.0, 0.0}));
}

TEST(StaticSelector, NameFallsBackToTheLabel) {
  EXPECT_EQ(StaticSelector(1).name(), "STATIC(1)");
  EXPECT_EQ(StaticSelector(0, "LAST").clone()->name(), "STATIC(LAST)");
}

TEST(StaticSelector, HasNothingToLearn) {
  StaticSelector sel(0);
  EXPECT_FALSE(sel.supports_online_learning());
  sel.learn(kWindow, 2);
  sel.reset();
  EXPECT_EQ(sel.select(kWindow), 0u);
  EXPECT_EQ(sel.label(), 0u);
}

TEST(OracleSelector, RecordSkipsNonFiniteForecasts) {
  OracleSelector oracle;
  oracle.record(std::vector<double>{std::nan(""), 3.0, 1.5}, 1.0);
  EXPECT_EQ(oracle.select(kWindow), 2u);
}

TEST(OracleSelector, CloneCarriesThePersistedLabel) {
  OracleSelector oracle;
  oracle.record(std::vector<double>{9.0, 1.0}, 1.0);
  const auto copy = oracle.clone();
  oracle.reset();
  EXPECT_EQ(copy->select(kWindow), 1u);
  EXPECT_EQ(oracle.select(kWindow), 0u);
  EXPECT_TRUE(copy->needs_hindsight());
}

TEST(EwmaMse, NameShowsTheDecay) {
  EXPECT_EQ(EwmaMseSelector(2, 0.5).name(), "EWMA-MSE(0.500000)");
}

TEST(WindowedCumMse, ValidatesConstruction) {
  EXPECT_THROW(WindowedCumMseSelector(0, 2), InvalidArgument);
  WindowedCumMseSelector sel(2, 2);
  EXPECT_THROW(sel.record(std::vector<double>{1.0, 2.0, 3.0}, 0.0),
               InvalidArgument);
}

TEST(WindowedCumMse, ResetAndCloneCarryState) {
  WindowedCumMseSelector sel(2, 2);
  sel.record(std::vector<double>{9.0, 0.0}, 0.0);
  const auto copy = sel.clone();
  sel.reset();
  EXPECT_EQ(copy->select(kWindow), 1u);
  EXPECT_EQ(sel.select(kWindow), 0u);
  EXPECT_EQ(copy->name(), "W-Cum.MSE(2)");
}

// Rising windows labeled 1 and flat windows labeled 0 (the scenario of
// ClassifiesWindowsThroughPca), as a k = 3 selector.
KnnSelector rising_vs_flat_knn() {
  linalg::Matrix windows(40, 4);
  std::vector<std::size_t> labels(40);
  for (std::size_t i = 0; i < 40; ++i) {
    const bool rising = i % 2 == 0;
    for (std::size_t j = 0; j < 4; ++j) {
      windows(i, j) = rising ? static_cast<double>(j) +
                                   0.01 * static_cast<double>(i)
                             : 1.5 + 0.01 * static_cast<double>(i);
    }
    labels[i] = rising ? 1 : 0;
  }
  ml::Pca pca;
  pca.fit(windows, ml::PcaPolicy{2, 0.9});
  ml::KnnClassifier knn(3);
  knn.fit(pca.transform(windows), labels);
  return KnnSelector(std::move(pca), std::move(knn));
}

const std::vector<double> kRising{0, 1, 2, 3};
const std::vector<double> kFalling{3, 2, 1, 0};

TEST(KnnSelector, VoteSharesSumToOneAndPeakAtTheSelection) {
  KnnSelector sel = rising_vs_flat_knn();
  for (const auto& window : {kRising, kFalling}) {
    std::vector<double> weights;
    sel.select_weights_into(window, 3, weights);
    ASSERT_EQ(weights.size(), 3u);
    double total = 0.0;
    for (double w : weights) {
      EXPECT_GE(w, 0.0);
      total += w;
    }
    EXPECT_DOUBLE_EQ(total, 1.0);
    EXPECT_DOUBLE_EQ(weights[2], 0.0);  // no training window carries label 2
    const std::size_t pick = sel.select(window);
    for (double w : weights) EXPECT_LE(w, weights[pick]);
    EXPECT_EQ(sel.select_weights(window, 3), weights);
  }
}

TEST(KnnSelector, VoteSharesRejectLabelsOutsideThePool) {
  KnnSelector sel = rising_vs_flat_knn();
  std::vector<double> weights;
  EXPECT_THROW(sel.select_weights_into(kRising, 1, weights), InvalidArgument);
}

TEST(KnnSelector, LearnedWindowsJoinTheVote) {
  KnnSelector sel = rising_vs_flat_knn();
  EXPECT_TRUE(sel.supports_online_learning());
  const std::size_t before = sel.classifier().size();
  // k copies of the window sit at distance zero and outvote everything.
  for (int i = 0; i < 3; ++i) sel.learn(kFalling, 2);
  EXPECT_EQ(sel.classifier().size(), before + 3);
  EXPECT_EQ(sel.select(kFalling), 2u);
  EXPECT_EQ(sel.select(kRising), 1u);
}

TEST(KnnSelector, CloneLearnsIndependentlyOfTheOriginal) {
  KnnSelector sel = rising_vs_flat_knn();
  const std::size_t original_pick = sel.select(kFalling);
  ASSERT_NE(original_pick, 2u);
  auto copy = sel.clone();
  for (int i = 0; i < 3; ++i) copy->learn(kFalling, 2);
  EXPECT_EQ(copy->select(kFalling), 2u);
  EXPECT_EQ(sel.select(kFalling), original_pick);
  EXPECT_EQ(sel.classifier().size(), 40u);
}

}  // namespace
}  // namespace larp::selection
