// Tests for the sharded multi-series serving layer.
#include "serve/prediction_engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace larp::serve {
namespace {

tsdb::SeriesKey key_of(std::size_t s) {
  return {"host" + std::to_string(s / 4), "dev" + std::to_string(s % 4), "cpu"};
}

std::vector<double> ar1_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  double dev = 0.0;
  for (auto& x : xs) {
    dev = 0.8 * dev + rng.normal(0.0, 2.0);
    x = 50.0 + dev;
  }
  return xs;
}

EngineConfig small_config(std::size_t threads, std::size_t shards = 4) {
  EngineConfig config;
  config.lar.window = 5;
  config.shards = shards;
  config.threads = threads;
  config.train_samples = 40;
  config.audit_every = 0;  // determinism tests drive QA explicitly
  return config;
}

TEST(PredictionEngine, ValidatesConstruction) {
  EXPECT_THROW(PredictionEngine(predictors::PredictorPool{}, small_config(1)),
               InvalidArgument);
  auto zero_shards = small_config(1);
  zero_shards.shards = 0;
  EXPECT_THROW(PredictionEngine(predictors::make_paper_pool(5), zero_shards),
               InvalidArgument);
  auto tiny_train = small_config(1);
  tiny_train.train_samples = tiny_train.lar.window + 1;
  EXPECT_THROW(PredictionEngine(predictors::make_paper_pool(5), tiny_train),
               InvalidArgument);
  // The QA settings, which a restore reads from the snapshot.
  auto no_threshold = small_config(1);
  no_threshold.quality.mse_threshold = 0.0;
  EXPECT_THROW(PredictionEngine(predictors::make_paper_pool(5), no_threshold),
               InvalidArgument);
  auto no_window = small_config(1);
  no_window.quality.audit_window = 0;
  EXPECT_THROW(PredictionEngine(predictors::make_paper_pool(5), no_window),
               InvalidArgument);
  auto no_min_records = small_config(1);
  no_min_records.quality.min_records = 0;
  EXPECT_THROW(PredictionEngine(predictors::make_paper_pool(5), no_min_records),
               InvalidArgument);
}

TEST(PredictionEngine, LazyTrainsAfterTrainSamples) {
  PredictionEngine engine(predictors::make_paper_pool(5), small_config(1));
  const auto key = key_of(0);
  const auto series = ar1_series(60, 1);
  for (std::size_t i = 0; i < 39; ++i) engine.observe(key, series[i]);
  EXPECT_FALSE(engine.is_trained(key));
  EXPECT_FALSE(engine.predict(key).ready);
  engine.observe(key, series[39]);
  EXPECT_TRUE(engine.is_trained(key));
  const auto prediction = engine.predict(key);
  EXPECT_TRUE(prediction.ready);
  EXPECT_TRUE(std::isfinite(prediction.value));
  EXPECT_EQ(engine.series_count(), 1u);
  EXPECT_EQ(engine.stats().trains, 1u);
}

// The engine must be a pure fan-out: per-series forecasts are identical to a
// standalone LarPredictor fed the same stream, whatever the thread/shard mix.
TEST(PredictionEngine, MatchesStandaloneLarPredictor) {
  const std::size_t kSeries = 12;
  const std::size_t kTrain = 40;
  const std::size_t kSteps = 30;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PredictionEngine engine(predictors::make_paper_pool(5),
                            small_config(threads));

    std::vector<std::vector<double>> streams;
    std::vector<core::LarPredictor> reference;
    std::vector<tsdb::SeriesKey> keys;
    for (std::size_t s = 0; s < kSeries; ++s) {
      streams.push_back(ar1_series(kTrain + kSteps, 100 + s));
      keys.push_back(key_of(s));
      reference.emplace_back(predictors::make_paper_pool(5),
                             small_config(threads).lar);
      reference.back().train(
          std::span<const double>(streams.back().data(), kTrain));
    }

    std::vector<Observation> batch(kSeries);
    for (std::size_t i = 0; i < kTrain; ++i) {
      for (std::size_t s = 0; s < kSeries; ++s) {
        batch[s] = {keys[s], streams[s][i]};
      }
      engine.observe(batch);
    }

    for (std::size_t i = 0; i < kSteps; ++i) {
      const auto predictions = engine.predict(keys);
      for (std::size_t s = 0; s < kSeries; ++s) {
        const auto expected = reference[s].predict_next();
        ASSERT_TRUE(predictions[s].ready);
        ASSERT_DOUBLE_EQ(predictions[s].value, expected.value)
            << "threads=" << threads << " series " << s << " step " << i;
        ASSERT_EQ(predictions[s].label, expected.label);
      }
      for (std::size_t s = 0; s < kSeries; ++s) {
        batch[s] = {keys[s], streams[s][kTrain + i]};
        reference[s].observe(streams[s][kTrain + i]);
      }
      engine.observe(batch);
    }

    const auto stats = engine.stats();
    EXPECT_EQ(stats.series, kSeries);
    EXPECT_EQ(stats.trained_series, kSeries);
    EXPECT_EQ(stats.observations, kSeries * (kTrain + kSteps));
    EXPECT_EQ(stats.predictions, kSeries * kSteps);
    EXPECT_EQ(stats.resolved, kSeries * kSteps);
    EXPECT_GT(stats.mean_squared_error, 0.0);
    EXPECT_GT(stats.observe_seconds, 0.0);
    EXPECT_GT(stats.predict_seconds, 0.0);
  }
}

TEST(PredictionEngine, QaOrdersRetrainOnBadForecasts) {
  auto config = small_config(2);
  config.audit_every = 8;
  config.quality.mse_threshold = 1.0;
  config.quality.min_records = 4;
  PredictionEngine engine(predictors::make_paper_pool(5), config);

  const auto key = key_of(0);
  const auto series = ar1_series(config.train_samples, 7);
  for (double x : series) engine.observe(key, x);
  ASSERT_TRUE(engine.is_trained(key));

  // A level shift of +400 makes every resolved forecast wildly wrong, so an
  // audit must breach the threshold and order a re-train from the retained
  // (post-shift) history.
  Rng rng(8);
  for (int i = 0; i < 64; ++i) {
    (void)engine.predict(key);
    engine.observe(key, 450.0 + rng.normal(0.0, 1.0));
  }
  const auto stats = engine.stats();
  EXPECT_GT(stats.audits, 0u);
  EXPECT_GT(stats.retrains, 0u);

  // After re-training on the shifted regime, forecasts live at the new level.
  const auto prediction = engine.predict(key);
  ASSERT_TRUE(prediction.ready);
  EXPECT_NEAR(prediction.value, 450.0, 25.0);
}

TEST(PredictionEngine, ManySeriesAcrossShardsAndThreads) {
  auto config = small_config(4, /*shards=*/8);
  config.audit_every = 16;
  PredictionEngine engine(predictors::make_paper_pool(5), config);

  const std::size_t kSeries = 64;
  std::vector<tsdb::SeriesKey> keys;
  std::vector<Rng> rngs;
  std::vector<double> level(kSeries, 0.0);
  for (std::size_t s = 0; s < kSeries; ++s) {
    keys.push_back(key_of(s));
    rngs.emplace_back(1000 + s);
  }
  std::vector<Observation> batch(kSeries);
  const std::size_t total_steps = config.train_samples + 20;
  for (std::size_t i = 0; i < total_steps; ++i) {
    if (i > config.train_samples) (void)engine.predict(keys);
    for (std::size_t s = 0; s < kSeries; ++s) {
      level[s] = 0.8 * level[s] + rngs[s].normal(0.0, 2.0);
      batch[s] = {keys[s], 50.0 + level[s]};
    }
    engine.observe(batch);
  }

  const auto stats = engine.stats();
  EXPECT_EQ(stats.series, kSeries);
  EXPECT_EQ(stats.trained_series, kSeries);
  EXPECT_EQ(stats.trains, kSeries);
  EXPECT_EQ(stats.observations, kSeries * total_steps);
  EXPECT_GT(stats.resolved, 0u);
  EXPECT_TRUE(std::isfinite(stats.mean_absolute_error));
}

// One engine behind several callers, as when it backs several event loops:
// two threads drive disjoint key sets through a 3-thread engine at once, and
// every forecast must be bit-identical to a 1-thread engine fed that stream.
TEST(PredictionEngine, ConcurrentCallersMatchSingleThreadedEngines) {
  const std::size_t kSeries = 12;
  const std::size_t kSteps = 120;
  auto config = small_config(3, /*shards=*/8);
  config.audit_every = 8;  // QA re-trains run inside the fan-out too
  const auto drive = [&](PredictionEngine& engine, std::size_t caller) {
    std::vector<tsdb::SeriesKey> keys;
    std::vector<std::vector<double>> streams;
    for (std::size_t s = 0; s < kSeries; ++s) {
      keys.push_back(key_of(caller * kSeries + s));
      streams.push_back(ar1_series(kSteps, 500 + caller * kSeries + s));
    }
    std::vector<Prediction> forecasts;
    std::vector<Observation> batch(kSeries);
    for (std::size_t i = 0; i < kSteps; ++i) {
      const auto predictions = engine.predict(keys);
      forecasts.insert(forecasts.end(), predictions.begin(), predictions.end());
      for (std::size_t s = 0; s < kSeries; ++s) {
        batch[s] = {keys[s], streams[s][i]};
      }
      engine.observe(batch);
    }
    return forecasts;
  };

  PredictionEngine shared(predictors::make_paper_pool(5), config);
  ASSERT_EQ(shared.threads(), 3u);
  std::vector<std::vector<Prediction>> got(2);
  std::thread other([&] { got[1] = drive(shared, 1); });
  got[0] = drive(shared, 0);
  other.join();
  EXPECT_GT(shared.stats().retrains, 0u);

  auto single = config;
  single.threads = 1;
  for (std::size_t caller = 0; caller < got.size(); ++caller) {
    PredictionEngine reference(predictors::make_paper_pool(5), single);
    const auto want = drive(reference, caller);
    ASSERT_EQ(got[caller].size(), want.size());
    std::size_t ready = 0;
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[caller][k].ready, want[k].ready)
          << "caller " << caller << " #" << k;
      if (!want[k].ready) continue;
      ++ready;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[caller][k].value),
                std::bit_cast<std::uint64_t>(want[k].value))
          << "caller " << caller << " #" << k;
      ASSERT_EQ(got[caller][k].label, want[k].label);
    }
    EXPECT_EQ(ready, kSeries * (kSteps - config.train_samples));
  }
}

// A NaN or infinite value is refused before anything of its batch is logged
// or applied, so a series still accumulating is not poisoned, a trained
// series' error totals stay finite, the co-batched series trains on time,
// and a restore of the log reaches the live engine's state.
TEST(PredictionEngine, NonFiniteObservationsAreRefusedBeforeTheyAreLogged) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "larp_engine_non_finite_observations";
  fs::remove_all(dir);
  auto config = small_config(1, /*shards=*/1);
  config.train_samples = 20;
  config.durability.data_dir = dir;
  const std::vector<tsdb::SeriesKey> keys = {key_of(0), key_of(1)};
  const auto a = ar1_series(40, 1);
  const auto b = ar1_series(40, 2);
  const auto step = [&](PredictionEngine& engine, std::size_t i) {
    const std::vector<Observation> batch = {{keys[0], a[i]}, {keys[1], b[i]}};
    engine.observe(batch);
  };
  const auto refuse = [&](PredictionEngine& engine, std::size_t i) {
    const auto positions = engine.wal_positions();
    const auto observations = engine.stats().observations;
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      // The valid op leads, so a refusal that came after staging would show.
      const std::vector<Observation> batch = {{keys[1], b[i]}, {keys[0], bad}};
      EXPECT_THROW(engine.observe(batch), InvalidArgument);
    }
    EXPECT_EQ(engine.wal_positions(), positions);
    EXPECT_EQ(engine.stats().observations, observations);
  };

  std::vector<std::uint64_t> live_positions;
  EngineStats live;
  {
    PredictionEngine engine(predictors::make_paper_pool(5), config);
    for (std::size_t i = 0; i < 10; ++i) step(engine, i);
    refuse(engine, 10);  // both series still accumulating
    for (std::size_t i = 10; i < 20; ++i) step(engine, i);
    EXPECT_TRUE(engine.is_trained(keys[0]));
    EXPECT_TRUE(engine.is_trained(keys[1]));
    for (std::size_t i = 20; i < 30; ++i) {
      (void)engine.predict(keys);
      refuse(engine, i);  // both trained, each with a forecast pending
      step(engine, i);
    }
    live = engine.stats();
    EXPECT_EQ(live.resolved, 20u);
    EXPECT_TRUE(std::isfinite(live.mean_absolute_error));
    EXPECT_TRUE(std::isfinite(live.mean_squared_error));
    live_positions = engine.wal_positions();
  }

  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), dir, config);
  EXPECT_EQ(restored->wal_positions(), live_positions);
  const auto stats = restored->stats();
  EXPECT_EQ(stats.observations, live.observations);
  EXPECT_EQ(stats.trains, 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.mean_squared_error),
            std::bit_cast<std::uint64_t>(live.mean_squared_error));
  // It forecasts like an engine that never saw the refused values.
  auto clean = config;
  clean.durability = DurabilityConfig{};
  PredictionEngine reference(predictors::make_paper_pool(5), clean);
  for (std::size_t i = 0; i < 20; ++i) step(reference, i);
  for (std::size_t i = 20; i < 30; ++i) {
    (void)reference.predict(keys);
    step(reference, i);
  }
  const auto got = restored->predict(keys);
  const auto want = reference.predict(keys);
  for (std::size_t s = 0; s < keys.size(); ++s) {
    ASSERT_TRUE(got[s].ready);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[s].value),
              std::bit_cast<std::uint64_t>(want[s].value));
  }
  restored.reset();
  fs::remove_all(dir);
}

TEST(PredictionEngine, PredictUnknownSeriesIsNotReady) {
  PredictionEngine engine(predictors::make_paper_pool(5), small_config(1));
  const auto prediction = engine.predict(key_of(9));
  EXPECT_FALSE(prediction.ready);
  EXPECT_TRUE(std::isnan(prediction.value));
  EXPECT_TRUE(std::isnan(prediction.uncertainty));
  EXPECT_EQ(engine.series_count(), 0u);
}

}  // namespace
}  // namespace larp::serve
