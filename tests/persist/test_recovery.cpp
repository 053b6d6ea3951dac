// Engine-level crash-recovery integration tests: an engine restored from
// snapshot + WAL must continue the forecast sequence BIT-identically to an
// uninterrupted reference engine fed the same stream — doubles compared as
// IEEE-754 bit patterns, not within a tolerance.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "persist/io.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "serve/prediction_engine.hpp"
#include "util/rng.hpp"

namespace larp::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kSeries = 6;
constexpr std::size_t kTrain = 40;

// Offsets into a v3/v4 engine payload.  After the u32 payload version and the
// 110-byte pre-tier config block come the removed tier's slots: the tier
// byte, seven 8-byte tuning fields and the u64 fast-train threshold.
constexpr std::size_t kTierByte = 114;
constexpr std::size_t kFastTrainThreshold = 171;
constexpr std::size_t kConfigEnd = kFastTrainThreshold + 8;
// Shard 0's fast-train counter follows its five traffic fields and its train
// counter.  In v4 the section starts after the 4-shard watermark table
// (8 + 4 * 8 bytes) and the byte-accounting table (8 + 4 * 16 bytes); in v3
// only the watermark table precedes it.
constexpr std::size_t kV4Shard0FastTrains = kConfigEnd + 40 + 72 + 6 * 8;
constexpr std::size_t kV3Shard0FastTrains = kConfigEnd + 40 + 6 * 8;
// Shard s's encoded column in the v4 byte-accounting table (a count, then a
// raw and an encoded u64 per shard), and where the 4 sections start.
constexpr std::size_t v4_encoded_bytes_at(std::size_t s) {
  return kConfigEnd + 40 + 8 + 16 * s + 8;
}
constexpr std::size_t kV4Sections = kConfigEnd + 40 + 72;

fs::path golden_fixture(const char* name) {
  return fs::path(LARP_PERSIST_TESTDATA_DIR) / name;
}

std::vector<std::byte> golden_payload(const char* name) {
  const auto loaded = persist::load_newest_valid(golden_fixture(name));
  if (!loaded) throw std::runtime_error(std::string("no snapshot in ") + name);
  return {loaded->payload.begin(), loaded->payload.end()};
}

std::uint64_t u64_at(std::span<const std::byte> payload, std::size_t at) {
  persist::io::Reader r{payload.subspan(at, 8)};
  return r.u64();
}

void set_u64(std::vector<std::byte>& payload, std::size_t at,
             std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    payload.at(at + i) = static_cast<std::byte>((value >> (8 * i)) & 0xFFu);
  }
}

/// Every WAL segment in `dir`, by file name, with its bytes.
std::map<std::string, std::vector<std::byte>> wal_files(const fs::path& dir) {
  std::map<std::string, std::vector<std::byte>> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-")) files[name] = persist::read_file(entry.path());
  }
  return files;
}

void append_garbage(const fs::path& file, std::size_t bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::app);
  for (std::size_t i = 0; i < bytes; ++i) out.put(static_cast<char>(0x5A));
}

tsdb::SeriesKey key_of(std::size_t s) {
  return {"host" + std::to_string(s / 2), "dev" + std::to_string(s % 2), "cpu"};
}

EngineConfig base_config() {
  EngineConfig config;
  config.lar.window = 5;
  config.shards = 4;
  config.threads = 1;
  config.train_samples = kTrain;
  config.audit_every = 8;  // exercise QA audits through the WAL replay too
  return config;
}

EngineConfig durable_config(const fs::path& dir) {
  EngineConfig config = base_config();
  config.durability.data_dir = dir;
  // Always-fsync so "destroy the engine" is indistinguishable from a crash:
  // every appended frame was already durable before the teardown.
  config.durability.wal.fsync = persist::FsyncPolicy::Always;
  return config;
}

/// Drives `steps` rounds of predict-all + observe-all with a deterministic
/// AR(1) stream per series, continuing from `*step_state` so two engines fed
/// via the same state object see the same values at the same offsets.
struct StreamState {
  std::vector<Rng> rngs;
  std::vector<double> level;
  StreamState() : level(kSeries, 0.0) {
    Rng parent(2007);
    for (std::size_t s = 0; s < kSeries; ++s) rngs.push_back(parent.split(s));
  }
  double sample(std::size_t s) {
    level[s] = 0.8 * level[s] + rngs[s].normal(0.0, 2.0);
    return 50.0 + level[s];
  }
};

void drive(PredictionEngine& engine, StreamState& stream, std::size_t steps,
           bool with_predict) {
  std::vector<tsdb::SeriesKey> keys;
  for (std::size_t s = 0; s < kSeries; ++s) keys.push_back(key_of(s));
  std::vector<Observation> batch(kSeries);
  for (std::size_t i = 0; i < steps; ++i) {
    if (with_predict) (void)engine.predict(keys);
    for (std::size_t s = 0; s < kSeries; ++s) {
      batch[s] = {keys[s], stream.sample(s)};
    }
    engine.observe(batch);
  }
}

/// Bit-exact comparison, treating NaN == NaN (early uncertainty is NaN).
void expect_bit_identical(const Prediction& got, const Prediction& want,
                          std::size_t series, std::size_t step) {
  EXPECT_EQ(got.ready, want.ready) << "series " << series << " step " << step;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
            std::bit_cast<std::uint64_t>(want.value))
      << "series " << series << " step " << step;
  EXPECT_EQ(got.label, want.label) << "series " << series << " step " << step;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.uncertainty),
            std::bit_cast<std::uint64_t>(want.uncertainty))
      << "series " << series << " step " << step;
}

/// Feeds both engines the same post-recovery stream and asserts every
/// forecast of every series matches bit-for-bit.
void expect_identical_future(PredictionEngine& restored,
                             PredictionEngine& reference, StreamState& stream_a,
                             StreamState& stream_b, std::size_t steps) {
  std::vector<tsdb::SeriesKey> keys;
  for (std::size_t s = 0; s < kSeries; ++s) keys.push_back(key_of(s));
  std::vector<Observation> batch(kSeries);
  for (std::size_t i = 0; i < steps; ++i) {
    const auto got = restored.predict(keys);
    const auto want = reference.predict(keys);
    for (std::size_t s = 0; s < kSeries; ++s) {
      expect_bit_identical(got[s], want[s], s, i);
    }
    for (std::size_t s = 0; s < kSeries; ++s) {
      batch[s] = {keys[s], stream_a.sample(s)};
      ASSERT_EQ(batch[s].value, stream_b.sample(s));
    }
    restored.observe(batch);
    reference.observe(batch);
  }
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("larp_recovery_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// The headline contract: snapshot mid-stream, keep serving (WAL only), crash,
// restore — the restored engine and an uninterrupted reference then agree on
// every future forecast, bit for bit.
TEST_F(RecoveryTest, SnapshotPlusWalReplayIsBitIdentical) {
  StreamState stream_a;
  StreamState stream_b;
  auto reference = std::make_unique<PredictionEngine>(
      predictors::make_paper_pool(5), base_config());
  {
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(dir_));
    drive(durable, stream_a, kTrain + 10, /*with_predict=*/true);
    (void)durable.snapshot();
    // 17 more rounds after the snapshot live only in the WAL.
    drive(durable, stream_a, 17, /*with_predict=*/true);
  }  // "crash"
  drive(*reference, stream_b, kTrain + 10 + 17, /*with_predict=*/true);

  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), dir_);
  const auto restored_stats = restored->stats();
  const auto reference_stats = reference->stats();
  EXPECT_EQ(restored_stats.observations, reference_stats.observations);
  EXPECT_EQ(restored_stats.predictions, reference_stats.predictions);
  EXPECT_EQ(restored_stats.trains, reference_stats.trains);
  EXPECT_EQ(restored_stats.resolved, reference_stats.resolved);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(restored_stats.mean_squared_error),
            std::bit_cast<std::uint64_t>(reference_stats.mean_squared_error));

  expect_identical_future(*restored, *reference, stream_a, stream_b, 25);
}

// No snapshot was ever taken: recovery replays the whole log from zero.
TEST_F(RecoveryTest, WalOnlyRecoveryFromEmptySnapshotDir) {
  StreamState stream_a;
  StreamState stream_b;
  auto reference = std::make_unique<PredictionEngine>(
      predictors::make_paper_pool(5), base_config());
  {
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(dir_));
    drive(durable, stream_a, kTrain + 12, /*with_predict=*/true);
  }
  drive(*reference, stream_b, kTrain + 12, /*with_predict=*/true);

  ASSERT_TRUE(persist::list_snapshots(dir_).empty());
  // With no snapshot there is no stored identity: the override supplies the
  // full configuration, which must match what the crashed engine ran with.
  auto restored = PredictionEngine::restore(predictors::make_paper_pool(5),
                                            dir_, base_config());
  EXPECT_EQ(restored->stats().trains, reference->stats().trains);
  expect_identical_future(*restored, *reference, stream_a, stream_b, 20);
}

// Restoring an empty directory yields a fresh, working durable engine.
TEST_F(RecoveryTest, RestoreOfEmptyDirectoryStartsFresh) {
  auto engine = PredictionEngine::restore(predictors::make_paper_pool(5), dir_,
                                          base_config());
  EXPECT_EQ(engine->series_count(), 0u);
  StreamState stream;
  drive(*engine, stream, kTrain + 2, /*with_predict=*/true);
  EXPECT_EQ(engine->stats().trains, kSeries);
  EXPECT_GT(engine->snapshot(), 0u);
}

// A bit-flipped newest snapshot must be rejected; recovery falls back to the
// previous valid snapshot and replays the (longer) WAL suffix past it.
TEST_F(RecoveryTest, BitFlippedSnapshotFallsBackToPreviousValid) {
  StreamState stream_a;
  StreamState stream_b;
  auto reference = std::make_unique<PredictionEngine>(
      predictors::make_paper_pool(5), base_config());
  {
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(dir_));
    drive(durable, stream_a, kTrain + 5, /*with_predict=*/true);
    (void)durable.snapshot();  // epoch 1 (valid fallback)
    drive(durable, stream_a, 9, /*with_predict=*/true);
    (void)durable.snapshot();  // epoch 2 (to be corrupted)
    drive(durable, stream_a, 4, /*with_predict=*/true);
  }
  drive(*reference, stream_b, kTrain + 5 + 9 + 4, /*with_predict=*/true);

  const auto snapshots = persist::list_snapshots(dir_);
  ASSERT_EQ(snapshots.size(), 2u);
  ASSERT_EQ(snapshots.back().epoch, 2u);
  {
    std::fstream f(snapshots.back().path,
                   std::ios::in | std::ios::out | std::ios::binary);
    const auto at =
        static_cast<std::streamoff>(fs::file_size(snapshots.back().path) / 3);
    f.seekg(at);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(at);
    f.write(&byte, 1);
  }

  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), dir_);
  EXPECT_EQ(restored->stats().observations,
            reference->stats().observations);
  expect_identical_future(*restored, *reference, stream_a, stream_b, 15);
}

// A torn WAL tail (crash mid-append) recovers to the last valid frame; the
// restored engine equals a reference that never saw the torn observations.
TEST_F(RecoveryTest, TornWalTailRecoversToLastValidFrame) {
  StreamState stream_a;
  {
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(dir_));
    drive(durable, stream_a, kTrain + 8, /*with_predict=*/true);
  }
  // Tear bytes off the end of every shard's newest segment.
  std::size_t torn_shards = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    const auto segments = persist::list_wal_segments(dir_, s);
    if (segments.empty()) continue;
    const auto& tail = segments.back().path;
    const auto size = fs::file_size(tail);
    ASSERT_GT(size, 5u);
    fs::resize_file(tail, size - 5);
    ++torn_shards;
  }
  ASSERT_GT(torn_shards, 0u);

  auto restored = PredictionEngine::restore(predictors::make_paper_pool(5),
                                            dir_, base_config());
  // One torn frame per shard at most: nothing threw, state is serviceable,
  // and the repaired log accepts appends at the recovered position.
  EXPECT_EQ(restored->series_count(), kSeries);
  StreamState ignored;
  drive(*restored, ignored, 5, /*with_predict=*/true);
  restored.reset();

  // The repaired directory restores cleanly a second time.
  auto again = PredictionEngine::restore(predictors::make_paper_pool(5), dir_,
                                         base_config());
  EXPECT_EQ(again->series_count(), kSeries);
}

// Crash mid-group: with one shard, every batched observe()/predict() call
// stages one multi-frame WAL group, committed with a single write.  A tear
// landing inside such a group must recover exactly the checksum-valid frame
// prefix — asserted by restoring twice and demanding bit-identical state
// (same replay cut, same accumulated error sums) both times.
TEST_F(RecoveryTest, TornMidGroupTailRecoversValidPrefix) {
  EngineConfig config = durable_config(dir_);
  config.shards = 1;  // all kSeries frames of a batch land in one group
  StreamState stream;
  {
    PredictionEngine durable(predictors::make_paper_pool(5), config);
    drive(durable, stream, kTrain + 6, /*with_predict=*/true);
  }
  const auto count_frames = [&] {
    return persist::replay_wal(dir_, 0, 0, [](const persist::WalFrame&) {});
  };
  const auto before = count_frames();
  ASSERT_FALSE(before.truncated_tail);
  ASSERT_GT(before.next_seq, 2 * kSeries);

  // Tear into the middle of the final group: each batch commits one block
  // frame carrying kSeries ops, so chopping 60 bytes removes at least one
  // whole frame and tears another mid-frame.
  const auto segments = persist::list_wal_segments(dir_, 0);
  ASSERT_FALSE(segments.empty());
  const auto& tail = segments.back().path;
  const auto size = fs::file_size(tail);
  ASSERT_GT(size, 100u);
  fs::resize_file(tail, size - 60);

  const auto torn = count_frames();
  EXPECT_TRUE(torn.truncated_tail);
  EXPECT_LT(torn.next_seq, before.next_seq);
  EXPECT_GT(torn.next_seq, 0u);

  EngineConfig restore_config = base_config();
  restore_config.shards = 1;
  EngineStats first_stats;
  {
    auto restored = PredictionEngine::restore(predictors::make_paper_pool(5),
                                              dir_, restore_config);
    EXPECT_EQ(restored->series_count(), kSeries);
    first_stats = restored->stats();
    // The tear cost frames: fewer ops replayed than the run issued (each
    // block frame carries kSeries ops, so next_seq counts frames, not ops).
    EXPECT_LT(first_stats.observations + first_stats.predictions,
              2 * (kTrain + 6) * kSeries);
  }
  // The first restore repaired the torn suffix on disk; a second restore of
  // the same directory must land on the exact same prefix.
  auto again = PredictionEngine::restore(predictors::make_paper_pool(5), dir_,
                                         restore_config);
  const auto second_stats = again->stats();
  EXPECT_EQ(second_stats.observations, first_stats.observations);
  EXPECT_EQ(second_stats.predictions, first_stats.predictions);
  EXPECT_EQ(second_stats.resolved, first_stats.resolved);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(second_stats.mean_squared_error),
            std::bit_cast<std::uint64_t>(first_stats.mean_squared_error));
  // And the repaired log accepts appends at the recovered position.
  StreamState ignored;
  drive(*again, ignored, 3, /*with_predict=*/true);
}

// Crash in the middle of a background snapshot: the publication protocol
// writes snapshot-<epoch>.snap.tmp and renames only after a full fsync, so a
// kill mid-write leaves an orphaned .tmp (possibly torn) next to the
// previous retained snapshot.  Recovery must ignore the orphan, restore from
// the previous snapshot, replay the WAL past it, and match an uninterrupted
// reference bit for bit.
TEST_F(RecoveryTest, CrashDuringSnapshotFallsBackToRetained) {
  StreamState stream_a;
  StreamState stream_b;
  auto reference = std::make_unique<PredictionEngine>(
      predictors::make_paper_pool(5), base_config());
  {
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(dir_));
    drive(durable, stream_a, kTrain + 6, /*with_predict=*/true);
    (void)durable.snapshot();  // epoch 1: the survivor
    drive(durable, stream_a, 8, /*with_predict=*/true);
  }  // crash "during" the epoch-2 snapshot, simulated below
  drive(*reference, stream_b, kTrain + 6 + 8, /*with_predict=*/true);

  // Fabricate the orphan the killed snapshot would leave: the first half of
  // a would-be epoch-2 file (no trailing checksum, never renamed).
  const auto snapshots = persist::list_snapshots(dir_);
  ASSERT_EQ(snapshots.size(), 1u);
  std::vector<char> half;
  {
    std::ifstream in(snapshots[0].path, std::ios::binary);
    half.resize(static_cast<std::size_t>(fs::file_size(snapshots[0].path)) / 2);
    in.read(half.data(), static_cast<std::streamsize>(half.size()));
  }
  const fs::path orphan =
      dir_ / "snapshot-00000000000000000002.snap.tmp";
  {
    std::ofstream out(orphan, std::ios::binary);
    out.write(half.data(), static_cast<std::streamsize>(half.size()));
  }

  // The orphan is invisible to snapshot discovery...
  ASSERT_EQ(persist::list_snapshots(dir_).size(), 1u);
  // ...and recovery = retained snapshot + full WAL suffix, bit-identical.
  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), dir_);
  EXPECT_EQ(restored->stats().observations, reference->stats().observations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(restored->stats().mean_squared_error),
            std::bit_cast<std::uint64_t>(reference->stats().mean_squared_error));
  expect_identical_future(*restored, *reference, stream_a, stream_b, 15);

  // The next snapshot reclaims the epoch the orphan squatted on (publish
  // removes a stale .tmp before writing).
  EXPECT_EQ(restored->snapshot(), 2u);
  EXPECT_EQ(persist::list_snapshots(dir_).size(), 2u);
}

// erase() is WAL-logged: a restored engine must not resurrect the series.
TEST_F(RecoveryTest, EraseSurvivesRecovery) {
  StreamState stream;
  {
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(dir_));
    drive(durable, stream, kTrain + 4, /*with_predict=*/true);
    EXPECT_TRUE(durable.erase(key_of(0)));
    EXPECT_FALSE(durable.erase(key_of(0)));  // second erase is a no-op
    EXPECT_EQ(durable.series_count(), kSeries - 1);
  }
  auto restored = PredictionEngine::restore(predictors::make_paper_pool(5),
                                            dir_, base_config());
  EXPECT_EQ(restored->series_count(), kSeries - 1);
  EXPECT_FALSE(restored->is_trained(key_of(0)));
  EXPECT_TRUE(restored->is_trained(key_of(1)));
  EXPECT_EQ(restored->stats().erases, 1u);
}

// The restore-time override contributes runtime knobs only; the snapshot's
// identity fields (window, shards, train cadence) win.
TEST_F(RecoveryTest, OverrideCannotChangeIdentityFields) {
  StreamState stream;
  {
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(dir_));
    drive(durable, stream, kTrain + 2, /*with_predict=*/false);
    (void)durable.snapshot();
  }
  EngineConfig override_config = base_config();
  override_config.lar.window = 9;   // identity: must be ignored
  override_config.shards = 2;       // identity: must be ignored
  override_config.threads = 2;      // runtime: must be honored
  auto restored = PredictionEngine::restore(predictors::make_paper_pool(5),
                                            dir_, override_config);
  EXPECT_EQ(restored->config().lar.window, 5u);
  EXPECT_EQ(restored->config().shards, 4u);
  EXPECT_EQ(restored->config().durability.data_dir, dir_);
}

// snapshot() into the configured data_dir prunes WAL segments the snapshot
// made obsolete (whole segments only).
TEST_F(RecoveryTest, SnapshotPrunesCoveredWalSegments) {
  auto config = durable_config(dir_);
  config.durability.wal.segment_bytes = 512;  // force frequent rotation
  StreamState stream;
  {
    PredictionEngine durable(predictors::make_paper_pool(5), config);
    drive(durable, stream, kTrain + 20, /*with_predict=*/true);
    std::size_t before = 0;
    for (std::uint32_t s = 0; s < 4; ++s) {
      before += persist::list_wal_segments(dir_, s).size();
    }
    ASSERT_GT(before, 4u);  // rotation actually happened
    (void)durable.snapshot();
    std::size_t after = 0;
    for (std::uint32_t s = 0; s < 4; ++s) {
      after += persist::list_wal_segments(dir_, s).size();
    }
    EXPECT_LT(after, before);
  }
  // And the pruned directory still restores.
  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), dir_);
  EXPECT_EQ(restored->series_count(), kSeries);
}

// Cross-version migration tripwire (ROADMAP: "add one before the first
// format change"): a complete durable data directory — engine snapshot plus
// post-snapshot WAL frames — produced by the v1 format is committed under
// testdata/ and must keep restoring.  When the engine payload or WAL format
// evolves, either the new reader still accepts v1 (this test proves it) or
// the version constants were bumped without a migration path (this test
// fails before the release does).
TEST_F(RecoveryTest, GoldenV1EngineDirectoryStillRestores) {
  const fs::path fixture =
      fs::path(LARP_PERSIST_TESTDATA_DIR) / "engine-v1";
  ASSERT_TRUE(fs::exists(fixture)) << "missing committed fixture " << fixture;
  // Restore mutates the directory (WAL writers open, torn tails repaired),
  // so work on a copy and leave the committed fixture pristine.
  fs::copy(fixture, dir_, fs::copy_options::recursive);

  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), dir_);
  const auto stats = restored->stats();
  // Exact values baked in at fixture generation time (kTrain + 6 rounds,
  // snapshot, 5 more rounds that live only in the WAL).
  EXPECT_EQ(restored->series_count(), kSeries);
  EXPECT_EQ(stats.trains, kSeries);
  EXPECT_EQ(stats.observations, (kTrain + 11) * kSeries);
  EXPECT_EQ(stats.predictions, (kTrain + 11) * kSeries);
  EXPECT_EQ(restored->config().lar.window, 5u);
  EXPECT_EQ(restored->config().shards, 4u);
  // The restored engine serves: every series is past training and forecasts.
  std::vector<tsdb::SeriesKey> keys;
  for (std::size_t s = 0; s < kSeries; ++s) keys.push_back(key_of(s));
  for (const auto& p : restored->predict(keys)) EXPECT_TRUE(p.ready);
}

// Every committed fixture was cut from kTrain + 11 rounds of
// drive(with_predict) on base_config(), so its restore must continue exactly
// like an engine that never crashed.  The v1 and v3 WAL tails hold per-op
// frames, so this is also the bit-identity check of the per-op reader.
// Restored at 1 and at 4 threads, so both the in-order walk of the v1/v3
// sections and the parallel decode of the v4 ones are checked.
TEST_F(RecoveryTest, GoldenFixturesMatchAnUncrashedEngine) {
  fs::create_directories(dir_);
  for (const std::size_t threads : {1, 4}) {
    for (const char* name : {"engine-v1", "engine-v3", "engine-v4"}) {
      SCOPED_TRACE(std::string(name) + " at " + std::to_string(threads) +
                   " threads");
      const fs::path fixture = fs::path(LARP_PERSIST_TESTDATA_DIR) / name;
      ASSERT_TRUE(fs::exists(fixture)) << "missing committed fixture " << fixture;
      const fs::path dir = dir_ / (name + std::to_string(threads));
      fs::copy(fixture, dir, fs::copy_options::recursive);
      EngineConfig runtime = base_config();
      runtime.threads = threads;
      auto restored = PredictionEngine::restore(predictors::make_paper_pool(5),
                                                dir, runtime);
      EXPECT_EQ(restored->threads(), threads);

      StreamState stream_a;
      StreamState stream_b;
      PredictionEngine reference(predictors::make_paper_pool(5), base_config());
      drive(reference, stream_b, kTrain + 11, /*with_predict=*/true);
      for (std::size_t i = 0; i < kTrain + 11; ++i) {
        for (std::size_t s = 0; s < kSeries; ++s) (void)stream_a.sample(s);
      }
      expect_identical_future(*restored, reference, stream_a, stream_b, 15);
    }
  }
}

// Snapshots taken from one thread while another serves batches: each
// snapshot holds the engine's workers, so the batches run inline on their
// caller meanwhile.  Every shard's cut must still agree with its WAL, so the
// crashed engine restores bit-identically to one that never snapshotted.
TEST_F(RecoveryTest, SnapshotsDuringConcurrentBatchesRecoverBitIdentically) {
  EngineConfig config = durable_config(dir_);
  config.threads = 3;
  {
    PredictionEngine durable(predictors::make_paper_pool(5), config);
    StreamState stream;
    std::atomic<bool> serving{true};
    std::thread server([&] {
      drive(durable, stream, kTrain + 30, /*with_predict=*/true);
      serving.store(false);
    });
    std::size_t snapshots = 0;
    while (serving.load() || snapshots < 2) {
      (void)durable.snapshot();
      ++snapshots;
    }
    server.join();
  }
  StreamState stream_a;
  StreamState stream_b;
  PredictionEngine reference(predictors::make_paper_pool(5), base_config());
  drive(reference, stream_b, kTrain + 30, /*with_predict=*/true);
  for (std::size_t i = 0; i < kTrain + 30; ++i) {
    for (std::size_t s = 0; s < kSeries; ++s) (void)stream_a.sample(s);
  }
  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), dir_, config);
  EXPECT_EQ(restored->stats().observations, reference.stats().observations);
  EXPECT_EQ(restored->stats().predictions, reference.stats().predictions);
  expect_identical_future(*restored, reference, stream_a, stream_b, 15);
}

// The payload does not depend on the thread count: engines fed the same
// stream at 1 and at 4 threads write byte-identical snapshots, the second
// one cut at non-zero WAL watermarks.
TEST_F(RecoveryTest, SnapshotBytesDoNotDependOnTheThreadCount) {
  std::vector<std::vector<std::byte>> payloads;
  for (const std::size_t threads : {1, 4}) {
    const fs::path dir = dir_ / std::to_string(threads);
    EngineConfig config = durable_config(dir);
    config.threads = threads;
    StreamState stream;
    PredictionEngine engine(predictors::make_paper_pool(5), config);
    drive(engine, stream, kTrain + 10, /*with_predict=*/true);
    (void)engine.snapshot();
    drive(engine, stream, 7, /*with_predict=*/true);
    EXPECT_EQ(engine.snapshot(), 2u);
    const auto loaded = persist::load_newest_valid(dir);
    ASSERT_TRUE(loaded.has_value());
    payloads.emplace_back(loaded->payload.begin(), loaded->payload.end());
  }
  EXPECT_EQ(payloads[0], payloads[1]);
}

// One crashed directory — snapshot, WAL tail, torn last frame on shard 2 —
// restored at 1 and at 4 threads: the same log positions, and both continue
// bit-identically to an engine that never crashed.
TEST_F(RecoveryTest, RestoreDoesNotDependOnTheThreadCount) {
  const fs::path crashed = dir_ / "crashed";
  {
    StreamState stream;
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(crashed));
    drive(durable, stream, kTrain + 10, /*with_predict=*/true);
    (void)durable.snapshot();
    drive(durable, stream, 17, /*with_predict=*/true);
  }
  const auto segments = persist::list_wal_segments(crashed, 2);
  ASSERT_FALSE(segments.empty());
  append_garbage(segments.back().path, 11);

  std::vector<std::vector<std::uint64_t>> positions;
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const fs::path dir = dir_ / std::to_string(threads);
    fs::copy(crashed, dir, fs::copy_options::recursive);
    EngineConfig runtime = durable_config(dir);
    runtime.threads = threads;
    auto restored =
        PredictionEngine::restore(predictors::make_paper_pool(5), dir, runtime);
    positions.push_back(restored->wal_positions());

    StreamState stream_a;
    StreamState stream_b;
    PredictionEngine reference(predictors::make_paper_pool(5), base_config());
    drive(reference, stream_b, kTrain + 27, /*with_predict=*/true);
    for (std::size_t i = 0; i < kTrain + 27; ++i) {
      for (std::size_t s = 0; s < kSeries; ++s) (void)stream_a.sample(s);
    }
    expect_identical_future(*restored, reference, stream_a, stream_b, 15);
  }
  EXPECT_EQ(positions[0], positions[1]);
}

// A WAL-only directory cannot carry the shard count, and replaying it under
// a different one silently strands whole shard logs.  Restore must refuse
// instead of quietly losing data.
TEST_F(RecoveryTest, WalOnlyRestoreUnderWrongShardCountIsRefused) {
  StreamState stream;
  {
    PredictionEngine engine(predictors::make_paper_pool(5),
                            durable_config(dir_));  // 4 shards
    drive(engine, stream, 8, /*with_predict=*/true);
  }
  EngineConfig wrong = durable_config(dir_);
  wrong.shards = 2;
  EXPECT_THROW((void)PredictionEngine::restore(predictors::make_paper_pool(5),
                                               dir_, wrong),
               persist::CorruptData);
  wrong.shards = 8;
  EXPECT_THROW((void)PredictionEngine::restore(predictors::make_paper_pool(5),
                                               dir_, wrong),
               persist::CorruptData);
  // The matching count restores everything.
  auto restored = PredictionEngine::restore(predictors::make_paper_pool(5),
                                            dir_, durable_config(dir_));
  EXPECT_EQ(restored->stats().observations, 8 * kSeries);
}

// Same tripwire for the last pre-compression format: a v3 directory (raw
// payload sections, per-op WAL frames) written right before the v4 codec
// landed.  The v4 reader must keep accepting both the old snapshot layout
// and the legacy WAL frame format, including the mixed timeline where block
// frames start appearing after the first post-upgrade write.
TEST_F(RecoveryTest, GoldenV3EngineDirectoryStillRestores) {
  const fs::path fixture =
      fs::path(LARP_PERSIST_TESTDATA_DIR) / "engine-v3";
  ASSERT_TRUE(fs::exists(fixture)) << "missing committed fixture " << fixture;
  fs::copy(fixture, dir_, fs::copy_options::recursive);

  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), dir_);
  const auto stats = restored->stats();
  EXPECT_EQ(restored->series_count(), kSeries);
  EXPECT_EQ(stats.trains, kSeries);
  EXPECT_EQ(stats.observations, (kTrain + 11) * kSeries);
  EXPECT_EQ(stats.predictions, (kTrain + 11) * kSeries);
  std::vector<tsdb::SeriesKey> keys;
  for (std::size_t s = 0; s < kSeries; ++s) keys.push_back(key_of(s));
  for (const auto& p : restored->predict(keys)) EXPECT_TRUE(p.ready);

  // The post-upgrade timeline: new traffic appends COMPRESSED block frames
  // after the v3 per-op frames, and a second recovery replays the mix.
  StreamState drained;
  for (std::size_t i = 0; i < (kTrain + 11) * 1; ++i) {
    for (std::size_t s = 0; s < kSeries; ++s) (void)drained.sample(s);
  }
  drive(*restored, drained, 4, /*with_predict=*/true);
  const auto continued_stats = restored->stats();
  restored.reset();
  auto again = PredictionEngine::restore(predictors::make_paper_pool(5), dir_);
  EXPECT_EQ(again->stats().observations, continued_stats.observations);
  EXPECT_EQ(again->stats().predictions, continued_stats.predictions);
}

// And the current format: a v4 directory (compressed snapshot sections +
// block WAL frames) must restore and expose its byte accounting through
// describe_payload — the tripwire that locks today's writer output.
TEST_F(RecoveryTest, GoldenV4EngineDirectoryStillRestores) {
  const fs::path fixture =
      fs::path(LARP_PERSIST_TESTDATA_DIR) / "engine-v4";
  ASSERT_TRUE(fs::exists(fixture)) << "missing committed fixture " << fixture;
  fs::copy(fixture, dir_, fs::copy_options::recursive);

  {
    const auto loaded = persist::load_newest_valid(dir_);
    ASSERT_TRUE(loaded.has_value());
    const auto desc = PredictionEngine::describe_payload(loaded->payload);
    EXPECT_EQ(desc.payload_version, 4u);
    EXPECT_EQ(desc.shards, 4u);
    ASSERT_EQ(desc.watermarks.size(), 4u);
    ASSERT_EQ(desc.raw_bytes.size(), 4u);
    ASSERT_EQ(desc.encoded_bytes.size(), 4u);
    for (std::size_t s = 0; s < 4; ++s) {
      // Every shard held series when the fixture was cut, so compression
      // must have bought actual bytes.
      EXPECT_LT(desc.encoded_bytes[s], desc.raw_bytes[s]) << "shard " << s;
    }
  }

  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), dir_);
  const auto stats = restored->stats();
  EXPECT_EQ(restored->series_count(), kSeries);
  EXPECT_EQ(stats.trains, kSeries);
  EXPECT_EQ(stats.observations, (kTrain + 11) * kSeries);
  EXPECT_EQ(stats.predictions, (kTrain + 11) * kSeries);
  std::vector<tsdb::SeriesKey> keys;
  for (std::size_t s = 0; s < kSeries; ++s) keys.push_back(key_of(s));
  for (const auto& p : restored->predict(keys)) EXPECT_TRUE(p.ready);
}

// restore() cuts v4 sections apart by the accounting table's encoded column,
// so it checks the column first.  Each case below republishes the golden v4
// payload with a valid checksum.  A boundary moved by one byte keeps the
// column's sum, so only the section decode can catch it.
TEST_F(RecoveryTest, SectionBoundaryMovedByOneByteIsCorrupt) {
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    auto payload = golden_payload("engine-v4");
    set_u64(payload, v4_encoded_bytes_at(1),
            u64_at(payload, v4_encoded_bytes_at(1)) + 1);
    set_u64(payload, v4_encoded_bytes_at(2),
            u64_at(payload, v4_encoded_bytes_at(2)) - 1);
    const fs::path dir = dir_ / std::to_string(threads);
    persist::publish_snapshot(dir, 1, payload);
    EXPECT_NO_THROW((void)PredictionEngine::describe_payload(payload));
    EngineConfig runtime = base_config();
    runtime.threads = threads;
    EXPECT_THROW((void)PredictionEngine::restore(
                     predictors::make_paper_pool(5), dir, runtime),
                 persist::CorruptData);
  }
}

TEST_F(RecoveryTest, SectionLengthsPastThePayloadAreCorrupt) {
  auto payload = golden_payload("engine-v4");
  set_u64(payload, v4_encoded_bytes_at(3),
          u64_at(payload, v4_encoded_bytes_at(3)) + 8);
  persist::publish_snapshot(dir_, 1, payload);
  EXPECT_THROW((void)PredictionEngine::describe_payload(payload),
               persist::CorruptData);
  EXPECT_THROW(
      (void)PredictionEngine::restore(predictors::make_paper_pool(5), dir_),
      persist::CorruptData);
}

TEST_F(RecoveryTest, BytesAfterTheLastSectionAreCorrupt) {
  auto payload = golden_payload("engine-v4");
  payload.resize(payload.size() + 8, std::byte{0});
  persist::publish_snapshot(dir_ / "uncounted", 1, payload);
  EXPECT_THROW((void)PredictionEngine::describe_payload(payload),
               persist::CorruptData);
  EXPECT_THROW((void)PredictionEngine::restore(predictors::make_paper_pool(5),
                                               dir_ / "uncounted"),
               persist::CorruptData);
  // Counted in the last section's length, the same bytes pass the sum
  // check; the section's decode then ends before its recorded length.
  set_u64(payload, v4_encoded_bytes_at(3),
          u64_at(payload, v4_encoded_bytes_at(3)) + 8);
  persist::publish_snapshot(dir_ / "counted", 1, payload);
  EXPECT_NO_THROW((void)PredictionEngine::describe_payload(payload));
  EXPECT_THROW((void)PredictionEngine::restore(predictors::make_paper_pool(5),
                                               dir_ / "counted"),
               persist::CorruptData);
}

// Sections decode before any WAL is touched: a corrupt section fails the
// restore and leaves every log byte-identical, the torn tail that replay
// would have repaired included.
TEST_F(RecoveryTest, CorruptSectionFailsBeforeAnyWalIsRepaired) {
  fs::copy(fs::path(LARP_PERSIST_TESTDATA_DIR) / "engine-v4", dir_,
           fs::copy_options::recursive);
  const auto segments = persist::list_wal_segments(dir_, 3);
  ASSERT_FALSE(segments.empty());
  append_garbage(segments.back().path, 13);
  auto payload = golden_payload("engine-v4");
  std::size_t at = kV4Sections;
  for (std::size_t s = 0; s < 2; ++s) {
    at += static_cast<std::size_t>(u64_at(payload, v4_encoded_bytes_at(s)));
  }
  const auto length =
      static_cast<std::size_t>(u64_at(payload, v4_encoded_bytes_at(2)));
  std::fill_n(payload.begin() + static_cast<std::ptrdiff_t>(at), length,
              std::byte{0xFF});
  persist::publish_snapshot(dir_, 1, payload);
  const auto before = wal_files(dir_);
  ASSERT_EQ(before.size(), 4u);

  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EngineConfig runtime = base_config();
    runtime.threads = threads;
    EXPECT_THROW((void)PredictionEngine::restore(
                     predictors::make_paper_pool(5), dir_, runtime),
                 persist::CorruptData);
    EXPECT_EQ(wal_files(dir_), before);
  }
}

// The cold-start selector tier is gone, but the v3/v4 payload keeps its
// config slots: a snapshot taken with the tier on must be refused, not
// restored into an engine that serves different forecasts.
TEST_F(RecoveryTest, TierOnSnapshotIsRefused) {
  const auto golden = persist::load_newest_valid(
      fs::path(LARP_PERSIST_TESTDATA_DIR) / "engine-v4");
  ASSERT_TRUE(golden.has_value());
  for (const std::size_t offset : {kTierByte, kFastTrainThreshold}) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    std::vector<std::byte> payload(golden->payload.begin(),
                                   golden->payload.end());
    ASSERT_EQ(payload.at(offset), std::byte{0});
    payload[offset] = std::byte{1};
    const fs::path dir = dir_ / std::to_string(offset);
    fs::create_directories(dir);
    persist::publish_snapshot(dir, 1, payload);
    EXPECT_THROW((void)PredictionEngine::restore(predictors::make_paper_pool(5),
                                                 dir),
                 persist::CorruptData);
    EXPECT_THROW((void)PredictionEngine::describe_payload(payload),
                 persist::CorruptData);
  }
}

// The same refusal on the v3 layout, whose config block is identical.
TEST_F(RecoveryTest, TierOnV3SnapshotIsRefused) {
  const auto golden = golden_payload("engine-v3");
  for (const std::size_t offset : {kTierByte, kFastTrainThreshold}) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    std::vector<std::byte> payload = golden;
    ASSERT_EQ(payload.at(offset), std::byte{0});
    payload[offset] = std::byte{2};
    const fs::path dir = dir_ / std::to_string(offset);
    fs::create_directories(dir);
    persist::publish_snapshot(dir, 1, payload);
    EXPECT_THROW((void)PredictionEngine::restore(predictors::make_paper_pool(5),
                                                 dir),
                 persist::CorruptData);
    EXPECT_THROW((void)PredictionEngine::describe_payload(payload),
                 persist::CorruptData);
  }
}

// The reader walks past the tier's tuning fields and each shard's fast-train
// counter without looking at them: whatever they hold, the restored engine is
// the one the rest of the payload describes.
TEST_F(RecoveryTest, TierTuningFieldsAndShardCountersAreSkipped) {
  for (const char* name : {"engine-v3", "engine-v4"}) {
    SCOPED_TRACE(name);
    const std::size_t counter = std::string(name) == "engine-v3"
                                    ? kV3Shard0FastTrains
                                    : kV4Shard0FastTrains;
    const auto golden = golden_payload(name);
    ASSERT_EQ(u64_at(golden, counter), 0u);
    std::vector<std::byte> patched = golden;
    for (std::size_t i = kTierByte + 1; i < kFastTrainThreshold; ++i) {
      patched[i] = std::byte{0xA5};
    }
    patched[counter] = std::byte{7};

    const fs::path golden_dir = dir_ / name / "golden";
    const fs::path patched_dir = dir_ / name / "patched";
    fs::create_directories(golden_dir);
    fs::create_directories(patched_dir);
    persist::publish_snapshot(golden_dir, 1, golden);
    persist::publish_snapshot(patched_dir, 1, patched);

    const auto want = PredictionEngine::describe_payload(golden);
    const auto got = PredictionEngine::describe_payload(patched);
    EXPECT_EQ(got.payload_version, want.payload_version);
    EXPECT_EQ(got.watermarks, want.watermarks);
    EXPECT_EQ(got.raw_bytes, want.raw_bytes);

    auto reference =
        PredictionEngine::restore(predictors::make_paper_pool(5), golden_dir);
    auto restored =
        PredictionEngine::restore(predictors::make_paper_pool(5), patched_dir);
    const auto want_stats = reference->stats();
    const auto stats = restored->stats();
    // Every neighbour of the patched counter in the shard header is a
    // traffic counter or an error sum, so a misplaced skip shows up here.
    EXPECT_EQ(stats.observations, want_stats.observations);
    EXPECT_EQ(stats.predictions, want_stats.predictions);
    EXPECT_EQ(stats.resolved, want_stats.resolved);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.mean_absolute_error),
              std::bit_cast<std::uint64_t>(want_stats.mean_absolute_error));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.mean_squared_error),
              std::bit_cast<std::uint64_t>(want_stats.mean_squared_error));
    EXPECT_EQ(stats.trains, want_stats.trains);
    EXPECT_EQ(stats.retrains, want_stats.retrains);
    EXPECT_EQ(stats.audits, want_stats.audits);
    EXPECT_EQ(stats.erases, want_stats.erases);
    StreamState stream_a;
    StreamState stream_b;
    expect_identical_future(*restored, *reference, stream_a, stream_b, 10);
  }
}

// Until payload v5 drops them, the writer keeps the tier's slots in place
// and writes every one of them as zero.
TEST_F(RecoveryTest, SnapshotWritesTheTierSlotsAsZero) {
  StreamState stream;
  PredictionEngine engine(predictors::make_paper_pool(5),
                          durable_config(dir_));
  drive(engine, stream, kTrain + 3, /*with_predict=*/true);
  (void)engine.snapshot();
  const auto loaded = persist::load_newest_valid(dir_);
  ASSERT_TRUE(loaded.has_value());
  const auto& payload = loaded->payload;
  ASSERT_GT(payload.size(), kV4Shard0FastTrains + 8);
  for (std::size_t i = kTierByte; i < kConfigEnd; ++i) {
    EXPECT_EQ(payload[i], std::byte{0}) << "config byte " << i;
  }
  EXPECT_EQ(u64_at(payload, kV4Shard0FastTrains), 0u);
  // The watermark table starts right after the slots: the layout is v4's.
  EXPECT_EQ(u64_at(payload, kConfigEnd), 4u);
  const auto desc = PredictionEngine::describe_payload(payload);
  EXPECT_EQ(desc.payload_version, 4u);
  EXPECT_EQ(desc.shards, 4u);
}

// The writer keeps the v4 layout and size.  Restoring the golden v4 snapshot
// alone and snapshotting again gives a payload of the same size whose config
// block, watermark table and byte-accounting table match the fixture's, except
// the tier's tuning fields: the writer that cut the fixture filled them with
// the tier's defaults even with the tier off, today's writes zeros.  (The
// shard sections hold the same state but may list series in another order.)
TEST_F(RecoveryTest, GoldenV4PayloadRewritesToTheSameLayout) {
  const auto golden = golden_payload("engine-v4");
  const fs::path source = dir_ / "source";
  fs::create_directories(source);
  persist::publish_snapshot(source, 1, golden);
  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), source);
  const fs::path target = dir_ / "target";
  fs::create_directories(target);
  (void)restored->snapshot(target);
  const auto rewritten = persist::load_newest_valid(target);
  ASSERT_TRUE(rewritten.has_value());
  const auto& got = rewritten->payload;
  ASSERT_EQ(got.size(), golden.size());

  constexpr std::size_t kTablesEnd = kConfigEnd + 40 + 72;
  for (std::size_t i = 0; i < kTablesEnd; ++i) {
    const bool tuning = i > kTierByte && i < kFastTrainThreshold;
    EXPECT_EQ(got[i], tuning ? std::byte{0} : golden[i]) << "byte " << i;
  }
  EXPECT_EQ(u64_at(got, kV4Shard0FastTrains), 0u);
}

// The slots are read with bounds checks: a payload that ends inside them is
// corrupt, not a short config.
TEST_F(RecoveryTest, PayloadCutInsideTheTierSlotsIsCorrupt) {
  const auto golden = golden_payload("engine-v4");
  for (const std::size_t cut : {kTierByte, kTierByte + 20, kConfigEnd - 3}) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    const std::vector<std::byte> payload(golden.begin(),
                                         golden.begin() + cut);
    EXPECT_THROW((void)PredictionEngine::describe_payload(payload),
                 persist::CorruptData);
    const fs::path dir = dir_ / std::to_string(cut);
    fs::create_directories(dir);
    persist::publish_snapshot(dir, 1, payload);
    EXPECT_THROW((void)PredictionEngine::restore(predictors::make_paper_pool(5),
                                                 dir),
                 persist::CorruptData);
  }
}

// describe_payload reads every committed payload version: v1 carries no
// watermark table, v3 adds it, v4 adds the byte accounting.
TEST_F(RecoveryTest, DescribePayloadReadsEveryGoldenVersion) {
  const auto v1 = PredictionEngine::describe_payload(golden_payload("engine-v1"));
  EXPECT_EQ(v1.payload_version, 1u);
  EXPECT_EQ(v1.shards, 4u);
  EXPECT_TRUE(v1.watermarks.empty());
  EXPECT_TRUE(v1.raw_bytes.empty());

  const auto v3 = PredictionEngine::describe_payload(golden_payload("engine-v3"));
  EXPECT_EQ(v3.payload_version, 3u);
  EXPECT_EQ(v3.shards, 4u);
  ASSERT_EQ(v3.watermarks.size(), 4u);
  EXPECT_TRUE(v3.raw_bytes.empty());
  EXPECT_TRUE(v3.encoded_bytes.empty());
  std::uint64_t frames = 0;
  for (const auto mark : v3.watermarks) frames += mark;
  EXPECT_GT(frames, 0u);

  const auto v4 = PredictionEngine::describe_payload(golden_payload("engine-v4"));
  EXPECT_EQ(v4.payload_version, 4u);
  EXPECT_EQ(v4.shards, 4u);
  EXPECT_EQ(v4.watermarks.size(), 4u);
  EXPECT_EQ(v4.raw_bytes.size(), 4u);
}

// Snapshot + WAL recovery of the engine variants whose per-series state
// differs from the default: the centroid classifier (selector kind 2) and
// online learning (a growing k-NN index and per-member label trackers).
void expect_variant_recovers(const fs::path& dir, const EngineConfig& config) {
  StreamState stream_a;
  StreamState stream_b;
  PredictionEngine reference(predictors::make_paper_pool(5), config);
  {
    EngineConfig durable = config;
    durable.durability.data_dir = dir;
    durable.durability.wal.fsync = persist::FsyncPolicy::Always;
    PredictionEngine engine(predictors::make_paper_pool(5), durable);
    drive(engine, stream_a, kTrain + 10, /*with_predict=*/true);
    (void)engine.snapshot();
    drive(engine, stream_a, 9, /*with_predict=*/true);
  }
  drive(reference, stream_b, kTrain + 19, /*with_predict=*/true);
  auto restored = PredictionEngine::restore(predictors::make_paper_pool(5), dir);
  EXPECT_EQ(restored->config().lar.classifier, config.lar.classifier);
  EXPECT_EQ(restored->config().lar.online_learning, config.lar.online_learning);
  EXPECT_EQ(restored->stats().trains, reference.stats().trains);
  expect_identical_future(*restored, reference, stream_a, stream_b, 15);
}

TEST_F(RecoveryTest, CentroidEngineRecoversBitIdentically) {
  EngineConfig config = base_config();
  config.lar.classifier = core::ClassifierKind::NearestCentroid;
  expect_variant_recovers(dir_, config);
}

TEST_F(RecoveryTest, OnlineLearningEngineRecoversBitIdentically) {
  EngineConfig config = base_config();
  config.lar.online_learning = true;
  expect_variant_recovers(dir_, config);
}

// A payload from the future must be refused loudly — silently misreading a
// newer layout would corrupt instead of failing.
TEST_F(RecoveryTest, FutureEnginePayloadVersionIsRejected) {
  persist::io::Writer w;
  w.u32(99);  // far past kEnginePayloadVersion
  w.u64(0);
  persist::ensure_directory(dir_);
  persist::publish_snapshot(dir_, 1, w.bytes());
  EXPECT_THROW((void)PredictionEngine::restore(predictors::make_paper_pool(5),
                                               dir_),
               persist::CorruptData);
  const auto loaded = persist::load_newest_valid(dir_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_THROW((void)PredictionEngine::describe_payload(loaded->payload),
               persist::CorruptData);
}

}  // namespace
}  // namespace larp::serve
