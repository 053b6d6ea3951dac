// Tests for the LARPredictor training/testing pipeline (§6).
#include "core/lar_predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "persist/io.hpp"
#include "predictors/last.hpp"
#include "predictors/pool.hpp"
#include "predictors/sliding_window_average.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace larp::core {
namespace {

LarConfig paper_config(std::size_t window = 5) {
  LarConfig config;
  config.window = window;
  config.pca_components = 2;
  config.knn_k = 3;
  return config;
}

std::vector<double> ar1_series(std::size_t n, std::uint64_t seed,
                               double phi = 0.8, double mean = 50.0,
                               double sigma = 5.0) {
  Rng rng(seed);
  std::vector<double> xs(n);
  double dev = 0.0;
  for (auto& x : xs) {
    dev = phi * dev + rng.normal(0.0, sigma);
    x = mean + dev;
  }
  return xs;
}

// End-to-end on a zero-variance trace: the normalizer's stddev-1 fallback
// must carry through training, prediction, and online observation without
// NaNs — the forecast is the flat level itself.
TEST(LarPredictor, ConstantSeriesEndToEnd) {
  const std::vector<double> flat(100, 42.0);
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  lar.train(flat);
  EXPECT_TRUE(lar.trained());
  EXPECT_DOUBLE_EQ(lar.normalizer().stddev(), 1.0);

  for (int step = 0; step < 20; ++step) {
    const auto forecast = lar.predict_next();
    EXPECT_DOUBLE_EQ(forecast.value, 42.0) << "step " << step;
    lar.observe(42.0);
  }
  // Residuals are exactly zero, so the warmed-up uncertainty is too.
  EXPECT_DOUBLE_EQ(lar.predict_next().uncertainty, 0.0);
}

TEST(LarPredictor, ConstructionValidation) {
  EXPECT_THROW(LarPredictor(predictors::PredictorPool{}, paper_config()),
               InvalidArgument);
  LarConfig zero_window = paper_config();
  zero_window.window = 0;
  EXPECT_THROW(LarPredictor(predictors::make_paper_pool(5), zero_window),
               InvalidArgument);
  // Window smaller than AR order is rejected.
  LarConfig small = paper_config(3);
  EXPECT_THROW(LarPredictor(predictors::make_paper_pool(5), small),
               InvalidArgument);
  LarConfig zero_k = paper_config();
  zero_k.knn_k = 0;
  EXPECT_THROW(LarPredictor(predictors::make_paper_pool(5), zero_k),
               InvalidArgument);
}

TEST(LarPredictor, UntrainedAccessThrows) {
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  EXPECT_FALSE(lar.trained());
  EXPECT_THROW((void)lar.predict_next(), StateError);
  EXPECT_THROW(lar.observe(1.0), StateError);
  EXPECT_THROW((void)lar.selector(), StateError);
  EXPECT_THROW((void)lar.training_labels(), StateError);
  EXPECT_THROW((void)lar.normalizer(), StateError);
}

TEST(LarPredictor, TrainValidatesLength) {
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  EXPECT_THROW(lar.train(std::vector<double>(6, 1.0)), InvalidArgument);
}

TEST(LarPredictor, TrainingProducesOneLabelPerSupervisedWindow) {
  const auto series = ar1_series(200, 1);
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  lar.train(series);
  ASSERT_TRUE(lar.trained());
  EXPECT_EQ(lar.training_labels().size(), 200u - 5u);
  for (std::size_t label : lar.training_labels()) EXPECT_LT(label, 3u);
  EXPECT_EQ(lar.observed_count(), 200u);
}

TEST(LarPredictor, ForecastIsFiniteAndInRawUnits) {
  const auto series = ar1_series(300, 2);
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  lar.train(series);
  const auto forecast = lar.predict_next();
  EXPECT_TRUE(std::isfinite(forecast.value));
  EXPECT_LT(forecast.label, 3u);
  // Raw units: an AR(1) around 50 should forecast in that neighbourhood.
  EXPECT_GT(forecast.value, 0.0);
  EXPECT_LT(forecast.value, 120.0);
}

TEST(LarPredictor, OnlineObservationsShiftTheWindow) {
  const auto series = ar1_series(300, 3);
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  lar.train(series);
  const auto before = lar.predict_next();
  lar.observe(series.back() + 10.0);
  const auto after = lar.predict_next();
  // The window changed, so (for LAST/AR selections at least) the forecast
  // should respond.  Equality of both is possible only for SW_AVG quirks;
  // assert the pipeline didn't throw and labels remain valid.
  EXPECT_LT(after.label, 3u);
  EXPECT_TRUE(std::isfinite(after.value));
  (void)before;
}

TEST(LarPredictor, LabelsTrackWorkloadCharacter) {
  // Construct a series whose first half is smooth (LAST/AR territory) and
  // whose second half is violent noise (SW_AVG territory); the training
  // labels must not collapse to a single class.
  Rng rng(4);
  std::vector<double> series;
  double dev = 0.0;
  for (int i = 0; i < 200; ++i) {
    dev = 0.95 * dev + rng.normal(0.0, 0.3);
    series.push_back(50.0 + dev);
  }
  for (int i = 0; i < 200; ++i) {
    series.push_back(rng.bernoulli(0.5) ? 80.0 + rng.normal(0, 5)
                                        : 20.0 + rng.normal(0, 5));
  }
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  lar.train(series);
  const auto& labels = lar.training_labels();
  std::vector<std::size_t> counts(3, 0);
  for (std::size_t l : labels) ++counts[l];
  EXPECT_GT(counts[0] + counts[1], 0u);
  EXPECT_GT(counts[2], 0u);  // SW_AVG must win somewhere in the noise half
}

TEST(LarPredictor, SelectorAgreesWithKnnOnTrainingWindows) {
  const auto series = ar1_series(150, 5);
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  lar.train(series);
  // Selector must produce a valid label for any window-sized input.
  auto selector = lar.selector().clone();
  const std::vector<double> window(5, 0.0);
  EXPECT_LT(selector->select(window), 3u);
}

TEST(LarPredictor, RetrainReplacesModel) {
  const auto first = ar1_series(200, 6, 0.8, 10.0, 1.0);
  const auto second = ar1_series(200, 7, 0.8, 1000.0, 1.0);
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  lar.train(first);
  const double mean_before = lar.normalizer().mean();
  lar.retrain(second);
  EXPECT_GT(lar.normalizer().mean(), 10.0 * mean_before);
  const auto forecast = lar.predict_next();
  EXPECT_GT(forecast.value, 500.0);  // now forecasting in the new regime
}

TEST(LarPredictor, WorksWithExtendedPool) {
  const auto series = ar1_series(400, 8);
  LarConfig config = paper_config(8);
  LarPredictor lar(predictors::make_extended_pool(8), config);
  lar.train(series);
  const auto forecast = lar.predict_next();
  EXPECT_LT(forecast.label, predictors::make_extended_pool(8).size());
  EXPECT_TRUE(std::isfinite(forecast.value));
}

TEST(LarPredictor, PcaSpaceAblationStillPredicts) {
  const auto series = ar1_series(300, 9);
  LarConfig config = paper_config();
  config.predict_in_pca_space = true;
  LarPredictor lar(predictors::make_paper_pool(5), config);
  lar.train(series);
  const auto forecast = lar.predict_next();
  EXPECT_TRUE(std::isfinite(forecast.value));
}

TEST(LarPredictor, KdTreeBackendMatchesBruteForceSelections) {
  const auto series = ar1_series(300, 10);
  LarConfig brute_cfg = paper_config();
  LarConfig tree_cfg = paper_config();
  tree_cfg.knn_backend = ml::KnnBackend::KdTree;

  LarPredictor brute(predictors::make_paper_pool(5), brute_cfg);
  LarPredictor tree(predictors::make_paper_pool(5), tree_cfg);
  brute.train(series);
  tree.train(series);

  auto bsel = brute.selector().clone();
  auto tsel = tree.selector().clone();
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> window(5);
    for (auto& w : window) w = rng.uniform(-2, 2);
    EXPECT_EQ(bsel->select(window), tsel->select(window));
  }
}

// Selector kind 3 was the removed cold-start tier's envelope.  A state that
// carries it must fail as corrupt before any of its bytes are parsed.
TEST(LarPredictor, SelectorKindThreeIsCorrupt) {
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  lar.train(ar1_series(300, 12));
  persist::io::Writer state;
  lar.save_state(state);
  // The kind byte follows the trained flag, the normalizer and the PCA.
  persist::io::Writer prefix;
  prefix.boolean(true);
  lar.normalizer().save(prefix);
  lar.pca().save(prefix);
  std::vector<std::byte> bytes(state.bytes().begin(), state.bytes().end());
  ASSERT_EQ(bytes.at(prefix.size()), std::byte{1});  // k-NN
  bytes[prefix.size()] = std::byte{3};

  LarPredictor restored(predictors::make_paper_pool(5), paper_config());
  persist::io::Reader reader{bytes};
  try {
    restored.load_state(reader);
    FAIL() << "kind 3 loaded";
  } catch (const persist::CorruptData& e) {
    EXPECT_NE(std::string(e.what()).find("unknown serialized selector kind"),
              std::string::npos)
        << e.what();
  }
}

// Saves `lar`, loads the bytes into a fresh predictor of the same pool and
// config, then checks both continue the forecast sequence bit for bit.
void expect_round_trip_continues(LarPredictor& lar, const LarConfig& config,
                                 std::uint64_t seed) {
  persist::io::Writer state;
  lar.save_state(state);
  LarPredictor restored(predictors::make_paper_pool(config.window), config);
  persist::io::Reader reader{state.bytes()};
  restored.load_state(reader);
  EXPECT_TRUE(reader.exhausted());
  ASSERT_TRUE(restored.trained());
  EXPECT_EQ(restored.selector().name(), lar.selector().name());
  EXPECT_EQ(restored.observed_count(), lar.observed_count());
  EXPECT_EQ(restored.training_labels(), lar.training_labels());
  for (const double x : ar1_series(40, seed)) {
    const auto want = lar.predict_next();
    const auto got = restored.predict_next();
    EXPECT_EQ(got.label, want.label);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
              std::bit_cast<std::uint64_t>(want.value));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.uncertainty),
              std::bit_cast<std::uint64_t>(want.uncertainty));
    lar.observe(x);
    restored.observe(x);
  }
  EXPECT_EQ(restored.online_windows_learned(), lar.online_windows_learned());
}

// Mid-stream state (pending forecast, residuals, online window) survives a
// save/load of a k-NN predictor.
TEST(LarPredictor, SaveLoadContinuesAKnnPredictor) {
  const LarConfig config = paper_config();
  LarPredictor lar(predictors::make_paper_pool(5), config);
  lar.train(ar1_series(300, 31));
  for (const double x : ar1_series(12, 32)) {
    (void)lar.predict_next();
    lar.observe(x);
  }
  (void)lar.predict_next();  // leave a forecast pending across the save
  expect_round_trip_continues(lar, config, 33);
}

TEST(LarPredictor, SaveLoadContinuesACentroidPredictor) {
  LarConfig config = paper_config();
  config.classifier = ClassifierKind::NearestCentroid;
  LarPredictor lar(predictors::make_paper_pool(5), config);
  lar.train(ar1_series(300, 34));
  ASSERT_EQ(lar.selector().name(), "LAR(centroid)");
  for (const double x : ar1_series(6, 35)) {
    (void)lar.predict_next();
    lar.observe(x);
  }
  expect_round_trip_continues(lar, config, 36);
}

TEST(LarPredictor, SaveLoadContinuesASoftVoteKdTreePredictor) {
  LarConfig config = paper_config();
  config.soft_vote = true;
  config.knn_backend = ml::KnnBackend::KdTree;
  LarPredictor lar(predictors::make_paper_pool(5), config);
  lar.train(ar1_series(300, 43));
  for (const double x : ar1_series(8, 44)) {
    (void)lar.predict_next();
    lar.observe(x);
  }
  expect_round_trip_continues(lar, config, 45);
}

TEST(LarPredictor, SaveLoadContinuesAPcaSpacePredictor) {
  LarConfig config = paper_config();
  config.predict_in_pca_space = true;
  LarPredictor lar(predictors::make_paper_pool(5), config);
  lar.train(ar1_series(300, 46));
  expect_round_trip_continues(lar, config, 47);
}

// Online learning grows the selector's index and per-member label trackers;
// both travel in the state.
TEST(LarPredictor, SaveLoadContinuesAnOnlineLearningPredictor) {
  LarConfig config = paper_config();
  config.online_learning = true;
  LarPredictor lar(predictors::make_paper_pool(5), config);
  lar.train(ar1_series(200, 37));
  for (const double x : ar1_series(20, 38)) {
    (void)lar.predict_next();
    lar.observe(x);
  }
  ASSERT_GT(lar.online_windows_learned(), 0u);
  expect_round_trip_continues(lar, config, 39);
}

TEST(LarPredictor, UntrainedStateLoadsAsUntrained) {
  LarPredictor untrained(predictors::make_paper_pool(5), paper_config());
  persist::io::Writer state;
  untrained.save_state(state);
  // Loading an untrained state over a trained predictor drops its model.
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  lar.train(ar1_series(200, 40));
  persist::io::Reader reader{state.bytes()};
  lar.load_state(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_FALSE(lar.trained());
  EXPECT_THROW((void)lar.predict_next(), StateError);
}

// Only kinds 1 (k-NN) and 2 (centroid) are selector envelopes.
TEST(LarPredictor, OtherUnknownSelectorKindsAreCorrupt) {
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  lar.train(ar1_series(300, 41));
  persist::io::Writer state;
  lar.save_state(state);
  persist::io::Writer prefix;
  prefix.boolean(true);
  lar.normalizer().save(prefix);
  lar.pca().save(prefix);
  for (const std::uint8_t kind : {0, 4, 255}) {
    SCOPED_TRACE("kind " + std::to_string(kind));
    std::vector<std::byte> bytes(state.bytes().begin(), state.bytes().end());
    bytes.at(prefix.size()) = static_cast<std::byte>(kind);
    LarPredictor restored(predictors::make_paper_pool(5), paper_config());
    persist::io::Reader reader{bytes};
    EXPECT_THROW(restored.load_state(reader), persist::CorruptData);
  }
}

TEST(LarPredictor, LoadStateRejectsADifferentPoolSize) {
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  lar.train(ar1_series(300, 42));
  persist::io::Writer state;
  lar.save_state(state);
  LarPredictor bigger(predictors::make_extended_pool(5), paper_config());
  ASSERT_NE(bigger.pool().size(), lar.pool().size());
  persist::io::Reader reader{state.bytes()};
  EXPECT_THROW(bigger.load_state(reader), persist::CorruptData);
}

TEST(LabelBestPredictors, MatchesManualComputation) {
  // Tiny deterministic series; verify a label by hand.
  // series (already "normalized" for the test's purpose): 0,0,0,10
  // window m=3 -> one supervised window (0,0,0) with target 10.
  // LAST -> 0 (err 10); AR unfit? use SW_AVG/LAST-only pool to keep it
  // parameter-free: SW_AVG -> 0 (err 10). Tie -> label 0 (LAST).
  predictors::PredictorPool pool;
  pool.add(std::make_unique<predictors::LastValue>());
  pool.add(std::make_unique<predictors::SlidingWindowAverage>());
  const std::vector<double> series{0, 0, 0, 10};
  const auto labels = label_best_predictors(pool, series, 3);
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0], 0u);
}

TEST(LabelBestPredictors, PrefersTheGenuinelyBetterExpert) {
  // Rising ramp: LAST undershoots by 1 each step, SW_AVG by more.
  predictors::PredictorPool pool;
  pool.add(std::make_unique<predictors::LastValue>());
  pool.add(std::make_unique<predictors::SlidingWindowAverage>());
  std::vector<double> ramp(50);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<double>(i);
  const auto labels = label_best_predictors(pool, ramp, 4);
  for (std::size_t l : labels) EXPECT_EQ(l, 0u);  // LAST always closer
}

TEST(LabelBestPredictors, Validation) {
  auto pool = predictors::make_paper_pool(3);
  EXPECT_THROW((void)label_best_predictors(pool, std::vector<double>(3, 1.0), 3),
               InvalidArgument);
}

}  // namespace
}  // namespace larp::core
