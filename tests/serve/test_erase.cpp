// Tests for PredictionEngine::erase: teardown semantics, stats bookkeeping,
// and interleaving erase with batched observe traffic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/prediction_engine.hpp"
#include "util/rng.hpp"

namespace larp::serve {
namespace {

tsdb::SeriesKey key_of(std::size_t s) {
  return {"host" + std::to_string(s / 4), "dev" + std::to_string(s % 4), "cpu"};
}

EngineConfig small_config(std::size_t threads = 1) {
  EngineConfig config;
  config.lar.window = 5;
  config.shards = 4;
  config.threads = threads;
  config.train_samples = 40;
  config.audit_every = 0;
  return config;
}

TEST(PredictionEngineErase, UnknownKeyReturnsFalse) {
  PredictionEngine engine(predictors::make_paper_pool(5), small_config());
  EXPECT_FALSE(engine.erase(key_of(0)));
  EXPECT_EQ(engine.stats().erases, 0u);
}

TEST(PredictionEngineErase, DropsStateAndCountsOnce) {
  PredictionEngine engine(predictors::make_paper_pool(5), small_config());
  Rng rng(3);
  for (int i = 0; i < 45; ++i) engine.observe(key_of(0), rng.normal(10.0, 2.0));
  ASSERT_TRUE(engine.is_trained(key_of(0)));
  ASSERT_EQ(engine.series_count(), 1u);

  EXPECT_TRUE(engine.erase(key_of(0)));
  EXPECT_EQ(engine.series_count(), 0u);
  EXPECT_FALSE(engine.is_trained(key_of(0)));
  EXPECT_FALSE(engine.predict(key_of(0)).ready);
  EXPECT_FALSE(engine.erase(key_of(0)));  // already gone
  EXPECT_EQ(engine.stats().erases, 1u);
}

// The series and trained-series gauges follow every train and erase,
// whether the erased series had trained or not.
TEST(PredictionEngineErase, GaugesFollowTrainsAndErases) {
  PredictionEngine engine(predictors::make_paper_pool(5), small_config());
  Rng rng(7);
  for (int i = 0; i < 45; ++i) {
    engine.observe(key_of(0), rng.normal(10.0, 2.0));
    engine.observe(key_of(1), rng.normal(10.0, 2.0));
  }
  for (int i = 0; i < 10; ++i) engine.observe(key_of(2), rng.normal(10.0, 2.0));
  auto stats = engine.stats();
  EXPECT_EQ(stats.series, 3u);
  EXPECT_EQ(stats.trained_series, 2u);

  ASSERT_TRUE(engine.erase(key_of(0)));  // trained
  ASSERT_TRUE(engine.erase(key_of(2)));  // still collecting its window
  stats = engine.stats();
  EXPECT_EQ(stats.series, 1u);
  EXPECT_EQ(stats.trained_series, 1u);
  EXPECT_EQ(stats.erases, 2u);

  for (int i = 0; i < 40; ++i) engine.observe(key_of(0), rng.normal(10.0, 2.0));
  stats = engine.stats();
  EXPECT_EQ(stats.series, 2u);
  EXPECT_EQ(stats.trained_series, 2u);
  EXPECT_EQ(stats.trains, 3u);
}

// After an erase the key is a brand-new series: it must re-accumulate a full
// training window and train from scratch.
TEST(PredictionEngineErase, ErasedSeriesRetrainsFromScratch) {
  PredictionEngine engine(predictors::make_paper_pool(5), small_config());
  Rng rng(5);
  for (int i = 0; i < 45; ++i) engine.observe(key_of(0), rng.normal(10.0, 2.0));
  ASSERT_TRUE(engine.erase(key_of(0)));

  for (int i = 0; i < 39; ++i) engine.observe(key_of(0), rng.normal(10.0, 2.0));
  EXPECT_FALSE(engine.is_trained(key_of(0)));
  engine.observe(key_of(0), rng.normal(10.0, 2.0));
  EXPECT_TRUE(engine.is_trained(key_of(0)));
  EXPECT_EQ(engine.stats().trains, 2u);
}

// Erase interleaved with batched observe traffic, multi-threaded: untouched
// series must behave exactly as in an engine that never saw the erases.
TEST(PredictionEngineErase, InterleavesWithBatchedObserve) {
  const std::size_t kSeries = 12;
  const std::size_t kErased = 3;  // keys 0..2 get erased mid-stream
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PredictionEngine engine(predictors::make_paper_pool(5),
                            small_config(threads));
    PredictionEngine reference(predictors::make_paper_pool(5),
                               small_config(threads));
    Rng parent(11);
    std::vector<Rng> rngs;
    for (std::size_t s = 0; s < kSeries; ++s) rngs.push_back(parent.split(s));
    std::vector<double> level(kSeries, 0.0);
    const auto sample = [&](std::size_t s) {
      level[s] = 0.7 * level[s] + rngs[s].normal(0.0, 1.5);
      return 20.0 + level[s];
    };

    std::vector<Observation> batch(kSeries);
    std::vector<Observation> reference_batch;
    std::size_t erases_done = 0;
    for (std::size_t step = 0; step < 70; ++step) {
      reference_batch.clear();
      for (std::size_t s = 0; s < kSeries; ++s) {
        batch[s] = {key_of(s), sample(s)};
        // The reference engine never sees the erased keys at all.
        if (s >= kErased) reference_batch.push_back(batch[s]);
      }
      engine.observe(batch);
      reference.observe(reference_batch);
      // Erase one of the doomed keys every 20 steps, mid-traffic.
      if (step % 20 == 19 && erases_done < kErased) {
        EXPECT_TRUE(engine.erase(key_of(erases_done)));
        ++erases_done;
      }
    }
    EXPECT_EQ(erases_done, kErased);
    EXPECT_EQ(engine.stats().erases, kErased);

    // Surviving series forecast identically to the erase-free reference.
    std::vector<tsdb::SeriesKey> keys;
    for (std::size_t s = kErased; s < kSeries; ++s) keys.push_back(key_of(s));
    const auto got = engine.predict(keys);
    const auto want = reference.predict(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(got[i].ready, want[i].ready);
      EXPECT_EQ(got[i].value, want[i].value) << "series " << i + kErased;
      EXPECT_EQ(got[i].label, want[i].label);
    }
    // The erased keys keep absorbing post-erase samples as fresh series.
    EXPECT_EQ(engine.series_count(), kSeries);
  }
}

}  // namespace
}  // namespace larp::serve
