// Legacy per-op WAL frames: engines before the block codec logged one frame
// per observe/predict/erase (type byte, the three key strings, and the value
// for an observe).  Nothing writes them any more, but the reader stays so
// v1/v3 logs keep replaying.  These tests hand-write such logs and restore
// them WAL-only, against an engine fed the same operations directly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "persist/io.hpp"
#include "persist/wal.hpp"
#include "serve/prediction_engine.hpp"
#include "serve/wal_codec.hpp"
#include "util/rng.hpp"

namespace larp::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::uint8_t kObserve = 0;
constexpr std::uint8_t kPredict = 1;
constexpr std::uint8_t kErase = 2;

constexpr std::size_t kSeries = 3;
constexpr std::size_t kTrain = 12;

tsdb::SeriesKey key_of(std::size_t s) {
  return {"vm" + std::to_string(s), "dev0", "cpu"};
}

// One shard, so every hand-written frame goes into log 0.
EngineConfig one_shard_config() {
  EngineConfig config;
  config.lar.window = 5;
  config.shards = 1;
  config.threads = 1;
  config.train_samples = kTrain;
  config.audit_every = 4;
  return config;
}

std::vector<std::byte> per_op_frame(std::uint8_t type,
                                    const tsdb::SeriesKey& key,
                                    double value = 0.0) {
  persist::io::Writer w;
  w.u8(type);
  w.str(key.vm_id);
  w.str(key.device_id);
  w.str(key.metric);
  if (type == kObserve) w.f64(value);
  const auto bytes = w.bytes();
  return {bytes.begin(), bytes.end()};
}

class PerOpWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("larp_per_op_wal_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// `rounds` rounds of predict-all + observe-all, logged as per-op frames
  /// and applied to `reference` through the public API.
  void log_rounds(persist::WalWriter& wal, PredictionEngine& reference,
                  std::size_t rounds) {
    for (std::size_t i = 0; i < rounds; ++i) {
      for (std::size_t s = 0; s < kSeries; ++s) {
        (void)wal.append(per_op_frame(kPredict, key_of(s)));
        (void)reference.predict(key_of(s));
      }
      for (std::size_t s = 0; s < kSeries; ++s) {
        const double value = next_value(s);
        (void)wal.append(per_op_frame(kObserve, key_of(s), value));
        reference.observe(key_of(s), value);
      }
    }
  }

  double next_value(std::size_t s) {
    level_[s] = 0.7 * level_[s] + rng_.normal(0.0, 3.0);
    return 20.0 + 10.0 * static_cast<double>(s) + level_[s];
  }

  std::unique_ptr<PredictionEngine> restore() {
    return PredictionEngine::restore(predictors::make_paper_pool(5), dir_,
                                     one_shard_config());
  }

  /// Drives both engines `rounds` more rounds, expecting identical forecasts.
  void expect_identical_future(PredictionEngine& restored,
                               PredictionEngine& reference,
                               std::size_t rounds) {
    for (std::size_t i = 0; i < rounds; ++i) {
      for (std::size_t s = 0; s < kSeries; ++s) {
        const auto got = restored.predict(key_of(s));
        const auto want = reference.predict(key_of(s));
        EXPECT_EQ(got.ready, want.ready) << "series " << s << " round " << i;
        EXPECT_EQ(got.label, want.label) << "series " << s << " round " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
                  std::bit_cast<std::uint64_t>(want.value))
            << "series " << s << " round " << i;
      }
      for (std::size_t s = 0; s < kSeries; ++s) {
        const double value = next_value(s);
        restored.observe(key_of(s), value);
        reference.observe(key_of(s), value);
      }
    }
  }

  fs::path dir_;
  Rng rng_{11};
  std::vector<double> level_ = std::vector<double>(kSeries, 0.0);
};

TEST_F(PerOpWalTest, ObserveAndPredictFramesReplayLikeLiveCalls) {
  PredictionEngine reference(predictors::make_paper_pool(5),
                             one_shard_config());
  {
    persist::WalWriter wal(dir_, 0, persist::WalConfig{});
    log_rounds(wal, reference, kTrain + 8);
  }
  auto restored = restore();
  const auto stats = restored->stats();
  const auto want = reference.stats();
  EXPECT_EQ(stats.series, kSeries);
  EXPECT_EQ(stats.observations, want.observations);
  EXPECT_EQ(stats.predictions, want.predictions);
  EXPECT_EQ(stats.trains, kSeries);
  EXPECT_EQ(stats.resolved, want.resolved);
  EXPECT_EQ(stats.audits, want.audits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.mean_squared_error),
            std::bit_cast<std::uint64_t>(want.mean_squared_error));
  expect_identical_future(*restored, reference, 10);
}

TEST_F(PerOpWalTest, EraseFrameDropsTheSeries) {
  PredictionEngine reference(predictors::make_paper_pool(5),
                             one_shard_config());
  {
    persist::WalWriter wal(dir_, 0, persist::WalConfig{});
    log_rounds(wal, reference, kTrain + 2);
    (void)wal.append(per_op_frame(kErase, key_of(1)));
    ASSERT_TRUE(reference.erase(key_of(1)));
  }
  auto restored = restore();
  EXPECT_EQ(restored->series_count(), kSeries - 1);
  EXPECT_FALSE(restored->is_trained(key_of(1)));
  EXPECT_TRUE(restored->is_trained(key_of(0)));
  EXPECT_EQ(restored->stats().erases, 1u);
  EXPECT_EQ(restored->stats().trained_series, kSeries - 1);
  // The erased key comes back as a new series and retrains from scratch.
  expect_identical_future(*restored, reference, kTrain + 3);
  EXPECT_TRUE(restored->is_trained(key_of(1)));
}

// A predict frame for a series the log never observed only counts: the
// live engine does not create a series for it either.
TEST_F(PerOpWalTest, PredictFrameForAnUnknownSeriesOnlyCounts) {
  {
    persist::WalWriter wal(dir_, 0, persist::WalConfig{});
    (void)wal.append(per_op_frame(kPredict, key_of(0)));
    (void)wal.append(per_op_frame(kPredict, key_of(0)));
  }
  auto restored = restore();
  EXPECT_EQ(restored->series_count(), 0u);
  EXPECT_EQ(restored->stats().predictions, 2u);
  EXPECT_FALSE(restored->predict(key_of(0)).ready);
}

// A frame the reader cannot decode ends the replay like a corrupt tail: the
// frames before it are applied, it and everything after it are not, and
// restore still succeeds.  The repair keeps the applied frames on disk, so a
// second restore finds the same state.
TEST_F(PerOpWalTest, UnknownFrameTypeEndsTheReplay) {
  {
    persist::WalWriter wal(dir_, 0, persist::WalConfig{});
    (void)wal.append(per_op_frame(kObserve, key_of(0), 1.0));
    (void)wal.append(per_op_frame(kObserve, key_of(0), 2.0));
    (void)wal.append(per_op_frame(3, key_of(0)));
    (void)wal.append(per_op_frame(kObserve, key_of(0), 3.0));
  }
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("restore " + std::to_string(pass + 1));
    auto restored = restore();
    EXPECT_EQ(restored->series_count(), 1u);
    EXPECT_EQ(restored->stats().observations, 2u);
    EXPECT_EQ(restored->wal_positions().at(0), 2u);
  }
}

TEST_F(PerOpWalTest, ObserveFrameWithoutItsValueEndsTheReplay) {
  {
    persist::WalWriter wal(dir_, 0, persist::WalConfig{});
    (void)wal.append(per_op_frame(kObserve, key_of(0), 1.0));
    auto frame = per_op_frame(kObserve, key_of(1), 2.0);
    frame.resize(frame.size() - sizeof(double));
    (void)wal.append(frame);
    (void)wal.append(per_op_frame(kObserve, key_of(2), 3.0));
  }
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("restore " + std::to_string(pass + 1));
    auto restored = restore();
    EXPECT_EQ(restored->series_count(), 1u);
    EXPECT_EQ(restored->stats().observations, 1u);
    EXPECT_EQ(restored->wal_positions().at(0), 1u);
  }
}

// Traffic after the replay is logged as block frames behind the per-op
// prefix, and a second recovery replays the mixed log.
TEST_F(PerOpWalTest, NewTrafficAfterReplayIsLoggedAsBlockFrames) {
  PredictionEngine reference(predictors::make_paper_pool(5),
                             one_shard_config());
  const std::size_t legacy_frames = (kTrain + 2) * kSeries * 2;
  {
    persist::WalWriter wal(dir_, 0, persist::WalConfig{});
    log_rounds(wal, reference, kTrain + 2);
  }
  {
    auto restored = restore();
    expect_identical_future(*restored, reference, 4);
  }
  std::size_t frames = 0;
  std::size_t blocks = 0;
  (void)persist::replay_wal(dir_, 0, 0, [&](const persist::WalFrame& frame) {
    const bool block = WalPayloadCodec::is_block(frame.payload);
    EXPECT_EQ(block, frames >= legacy_frames) << "frame " << frames;
    blocks += block ? 1 : 0;
    ++frames;
  });
  EXPECT_EQ(frames - legacy_frames, blocks);
  EXPECT_GT(blocks, 0u);

  auto again = restore();
  EXPECT_EQ(again->stats().observations, reference.stats().observations);
  expect_identical_future(*again, reference, 6);
}

// A snapshot taken after a per-op replay cuts the log past the per-op
// prefix: the next recovery skips those frames instead of applying them twice.
TEST_F(PerOpWalTest, SnapshotAfterReplayCoversThePerOpPrefix) {
  PredictionEngine reference(predictors::make_paper_pool(5),
                             one_shard_config());
  {
    persist::WalWriter wal(dir_, 0, persist::WalConfig{});
    log_rounds(wal, reference, kTrain + 2);
  }
  {
    auto restored = restore();
    EXPECT_EQ(restored->snapshot(), 1u);
    EXPECT_EQ(restored->wal_positions().at(0), (kTrain + 2) * kSeries * 2);
    expect_identical_future(*restored, reference, 3);
  }
  auto again = restore();
  EXPECT_EQ(again->stats().observations, reference.stats().observations);
  EXPECT_EQ(again->stats().predictions, reference.stats().predictions);
  expect_identical_future(*again, reference, 5);
}

}  // namespace
}  // namespace larp::serve
