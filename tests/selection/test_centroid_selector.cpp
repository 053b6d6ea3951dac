// Tests for the centroid-based selection strategy and the LarConfig
// classifier switch.
#include "selection/centroid_selector.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hpp"
#include "core/lar_predictor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace larp::selection {
namespace {

TEST(CentroidSelector, RequiresFittedComponents) {
  EXPECT_THROW(CentroidSelector(ml::Pca{}, ml::NearestCentroidClassifier{}),
               InvalidArgument);
}

TEST(CentroidSelector, SelectsByWindowShape) {
  // Rising windows labeled 1, flat windows labeled 0 (same scenario as the
  // KnnSelector test, so both strategies are covered identically).
  linalg::Matrix windows(40, 4);
  std::vector<std::size_t> labels(40);
  for (std::size_t i = 0; i < 40; ++i) {
    const bool rising = i % 2 == 0;
    for (std::size_t j = 0; j < 4; ++j) {
      windows(i, j) = rising ? static_cast<double>(j) + 0.01 * i
                             : 1.5 + 0.01 * i;
    }
    labels[i] = rising ? 1 : 0;
  }
  ml::Pca pca;
  pca.fit(windows, ml::PcaPolicy{2, 0.9});
  ml::NearestCentroidClassifier classifier;
  classifier.fit(pca.transform(windows), labels);
  CentroidSelector sel(std::move(pca), std::move(classifier));

  EXPECT_EQ(sel.select(std::vector<double>{0, 1, 2, 3}), 1u);
  EXPECT_EQ(sel.select(std::vector<double>{1.5, 1.5, 1.5, 1.5}), 0u);
  EXPECT_EQ(sel.name(), "LAR(centroid)");
  EXPECT_EQ(sel.clone()->select(std::vector<double>{0, 1, 2, 3}), 1u);
}

CentroidSelector rising_vs_flat_centroid() {
  linalg::Matrix windows(40, 4);
  std::vector<std::size_t> labels(40);
  for (std::size_t i = 0; i < 40; ++i) {
    const bool rising = i % 2 == 0;
    for (std::size_t j = 0; j < 4; ++j) {
      windows(i, j) = rising ? static_cast<double>(j) + 0.01 * i
                             : 1.5 + 0.01 * i;
    }
    labels[i] = rising ? 1 : 0;
  }
  ml::Pca pca;
  pca.fit(windows, ml::PcaPolicy{2, 0.9});
  ml::NearestCentroidClassifier classifier;
  classifier.fit(pca.transform(windows), labels);
  return CentroidSelector(std::move(pca), std::move(classifier));
}

const std::vector<double> kRising{0, 1, 2, 3};
const std::vector<double> kFalling{3, 2, 1, 0};

TEST(CentroidSelector, SoftSelectionIsOneHotOfTheNearestCentroid) {
  CentroidSelector sel = rising_vs_flat_centroid();
  for (const auto& window : {kRising, kFalling}) {
    std::vector<double> weights;
    sel.select_weights_into(window, 3, weights);
    std::vector<double> one_hot(3, 0.0);
    one_hot[sel.select(window)] = 1.0;
    EXPECT_EQ(weights, one_hot);
  }
}

TEST(CentroidSelector, LearnOpensANewClass) {
  CentroidSelector sel = rising_vs_flat_centroid();
  EXPECT_TRUE(sel.supports_online_learning());
  ASSERT_EQ(sel.classifier().classes(), 2u);
  // The new class's centroid is the window itself, at distance zero.
  sel.learn(kFalling, 2);
  EXPECT_EQ(sel.classifier().classes(), 3u);
  EXPECT_EQ(sel.select(kFalling), 2u);
  EXPECT_EQ(sel.select(kRising), 1u);
}

TEST(CentroidSelector, CloneLearnsIndependentlyOfTheOriginal) {
  CentroidSelector sel = rising_vs_flat_centroid();
  const std::size_t original_pick = sel.select(kFalling);
  ASSERT_NE(original_pick, 2u);
  auto copy = sel.clone();
  copy->learn(kFalling, 2);
  EXPECT_EQ(copy->select(kFalling), 2u);
  EXPECT_EQ(sel.select(kFalling), original_pick);
  EXPECT_EQ(sel.classifier().classes(), 2u);
}

std::vector<double> mixed_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  double dev = 0.0;
  bool smooth = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 50 == 0) smooth = !smooth;
    if (smooth) {
      dev = 0.9 * dev + rng.normal();
      xs.push_back(40.0 + dev);
    } else {
      xs.push_back(rng.bernoulli(0.4) ? 70.0 + rng.normal(0, 3)
                                      : 30.0 + rng.normal(0, 3));
    }
  }
  return xs;
}

TEST(CentroidSelector, LarPredictorSupportsBothClassifiers) {
  const auto series = mixed_series(400, 21);
  for (const auto kind : {core::ClassifierKind::Knn,
                          core::ClassifierKind::NearestCentroid}) {
    core::LarConfig config;
    config.window = 5;
    config.classifier = kind;
    core::LarPredictor lar(predictors::make_paper_pool(5), config);
    lar.train(series);
    const auto forecast = lar.predict_next();
    EXPECT_LT(forecast.label, 3u);
    EXPECT_TRUE(std::isfinite(forecast.value));
    // The polymorphic selector is exposed and usable.
    auto cloned = lar.selector().clone();
    EXPECT_LT(cloned->select(std::vector<double>(5, 0.0)), 3u);
  }
}

TEST(CentroidSelector, ExperimentRunnerSupportsBothClassifiers) {
  const auto series = mixed_series(300, 22);
  const auto pool = predictors::make_paper_pool(5);
  core::LarConfig knn_config, centroid_config;
  knn_config.window = centroid_config.window = 5;
  centroid_config.classifier = core::ClassifierKind::NearestCentroid;

  const auto knn_result = core::evaluate_fold(series, 150, pool, knn_config);
  const auto centroid_result =
      core::evaluate_fold(series, 150, pool, centroid_config);

  // Both produce valid fold results with identical oracle/baselines (the
  // classifier only changes the LAR row).
  EXPECT_DOUBLE_EQ(knn_result.mse_oracle, centroid_result.mse_oracle);
  EXPECT_DOUBLE_EQ(knn_result.mse_nws, centroid_result.mse_nws);
  EXPECT_GE(centroid_result.mse_lar, centroid_result.mse_oracle - 1e-12);
  EXPECT_GE(centroid_result.lar_accuracy, 0.0);
  EXPECT_LE(centroid_result.lar_accuracy, 1.0);
}

}  // namespace
}  // namespace larp::selection
