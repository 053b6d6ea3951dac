// Tests for the per-shard write-ahead log: append/replay round trips,
// segment rotation, fsync policies, and fault injection on the tail.
#include "persist/wal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace larp::persist {
namespace {

namespace fs = std::filesystem;

/// Injectable time source: tests advance it explicitly, so Interval-policy
/// and deadline behaviour is asserted exactly instead of raced against the
/// scheduler.  Copyable into a WalConfig; the atomic makes it safe to read
/// from a syncer thread while the test advances it.
struct FakeClock {
  std::shared_ptr<std::atomic<std::int64_t>> ms =
      std::make_shared<std::atomic<std::int64_t>>(0);
  [[nodiscard]] WalClock fn() const {
    auto ticks = ms;
    return [ticks] {
      return std::chrono::steady_clock::time_point{} +
             std::chrono::milliseconds(ticks->load());
    };
  }
  void advance(std::chrono::milliseconds d) { ms->fetch_add(d.count()); }
};

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("larp_wal_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::vector<std::byte> payload(const std::string& s) {
    std::vector<std::byte> out(s.size());
    // An empty vector's data() may be null, which memcpy must not receive.
    if (!s.empty()) std::memcpy(out.data(), s.data(), s.size());
    return out;
  }

  std::vector<std::pair<std::uint64_t, std::string>> replay_all(
      std::uint32_t shard, std::uint64_t from_seq = 0) {
    std::vector<std::pair<std::uint64_t, std::string>> frames;
    last_report_ = replay_wal(dir_, shard, from_seq, [&](const WalFrame& f) {
      frames.emplace_back(
          f.seq, std::string(reinterpret_cast<const char*>(f.payload.data()),
                             f.payload.size()));
    });
    return frames;
  }

  fs::path dir_;
  WalReplayReport last_report_;
};

TEST_F(WalTest, AppendReplayRoundTrip) {
  WalConfig config;
  {
    WalWriter writer(dir_, 0, config);
    EXPECT_EQ(writer.append(payload("alpha")), 0u);
    EXPECT_EQ(writer.append(payload("beta")), 1u);
    EXPECT_EQ(writer.append(payload("")), 2u);  // empty payloads are legal
    writer.sync();
  }
  const auto frames = replay_all(0);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], (std::pair<std::uint64_t, std::string>{0, "alpha"}));
  EXPECT_EQ(frames[1], (std::pair<std::uint64_t, std::string>{1, "beta"}));
  EXPECT_EQ(frames[2], (std::pair<std::uint64_t, std::string>{2, ""}));
  EXPECT_EQ(last_report_.next_seq, 3u);
  EXPECT_FALSE(last_report_.truncated_tail);
}

TEST_F(WalTest, ShardsAreIndependentLogs) {
  WalConfig config;
  WalWriter a(dir_, 0, config);
  WalWriter b(dir_, 1, config);
  a.append(payload("a0"));
  b.append(payload("b0"));
  b.append(payload("b1"));
  a.sync();
  b.sync();
  EXPECT_EQ(replay_all(0).size(), 1u);
  EXPECT_EQ(replay_all(1).size(), 2u);
}

TEST_F(WalTest, ReopenContinuesSequence) {
  WalConfig config;
  {
    WalWriter writer(dir_, 0, config);
    writer.append(payload("one"));
    writer.append(payload("two"));
  }  // destructor path: no explicit sync — buffered bytes still reach the file
  {
    WalWriter writer(dir_, 0, config);
    EXPECT_EQ(writer.next_seq(), 2u);
    EXPECT_EQ(writer.append(payload("three")), 2u);
    writer.sync();
  }
  const auto frames = replay_all(0);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[2].second, "three");
}

TEST_F(WalTest, FromSeqSkipsCoveredPrefix) {
  WalConfig config;
  WalWriter writer(dir_, 0, config);
  for (int i = 0; i < 10; ++i) writer.append(payload(std::to_string(i)));
  writer.sync();
  const auto frames = replay_all(0, 7);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].first, 7u);
  EXPECT_EQ(last_report_.frames_skipped, 7u);
  EXPECT_EQ(last_report_.frames_delivered, 3u);
}

TEST_F(WalTest, RotatesSegmentsAndReplaysAcrossThem) {
  WalConfig config;
  config.segment_bytes = 128;  // force rotation every few frames
  WalWriter writer(dir_, 0, config);
  const std::string blob(40, 'x');
  for (int i = 0; i < 20; ++i) writer.append(payload(blob));
  writer.sync();
  const auto segments = list_wal_segments(dir_, 0);
  ASSERT_GT(segments.size(), 2u);
  for (std::size_t i = 1; i < segments.size(); ++i) {
    EXPECT_GT(segments[i].start_seq, segments[i - 1].start_seq);
  }
  EXPECT_EQ(replay_all(0).size(), 20u);
  EXPECT_EQ(last_report_.next_seq, 20u);
}

TEST_F(WalTest, FsyncPoliciesKeepEveryFrame) {
  for (const auto policy :
       {FsyncPolicy::Always, FsyncPolicy::EveryN, FsyncPolicy::Interval}) {
    WalConfig config;
    config.fsync = policy;
    config.fsync_every_n = 3;
    const auto shard = static_cast<std::uint32_t>(policy);
    {
      WalWriter writer(dir_, shard, config);
      for (int i = 0; i < 8; ++i) writer.append(payload(std::to_string(i)));
      writer.sync();
    }
    EXPECT_EQ(replay_all(shard).size(), 8u) << "policy " << int(policy);
  }
}

// -- group commit -----------------------------------------------------------

TEST_F(WalTest, GroupCommitRoundTrip) {
  WalConfig config;
  {
    WalWriter writer(dir_, 0, config);
    EXPECT_EQ(writer.stage(payload("g0")), 0u);
    EXPECT_EQ(writer.stage(payload("g1")), 1u);
    EXPECT_EQ(writer.stage(payload("")), 2u);  // empty payloads stay legal
    writer.commit();
    writer.commit();  // committing an empty group is a no-op
    EXPECT_EQ(writer.append(payload("single")), 3u);  // append after a group
    writer.sync();
  }
  const auto frames = replay_all(0);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0], (std::pair<std::uint64_t, std::string>{0, "g0"}));
  EXPECT_EQ(frames[1], (std::pair<std::uint64_t, std::string>{1, "g1"}));
  EXPECT_EQ(frames[2], (std::pair<std::uint64_t, std::string>{2, ""}));
  EXPECT_EQ(frames[3], (std::pair<std::uint64_t, std::string>{3, "single"}));
  EXPECT_EQ(last_report_.next_seq, 4u);
  EXPECT_FALSE(last_report_.truncated_tail);
}

TEST_F(WalTest, GroupCommitCountsFramesTowardEveryN) {
  WalConfig config;
  config.fsync = FsyncPolicy::EveryN;
  config.fsync_every_n = 4;
  WalWriter writer(dir_, 0, config);
  for (int i = 0; i < 3; ++i) writer.stage(payload("x"));
  writer.commit();
  EXPECT_EQ(writer.unsynced_appends(), 3u);  // 3 < n: no sync yet
  for (int i = 0; i < 2; ++i) writer.stage(payload("y"));
  writer.commit();
  EXPECT_EQ(writer.unsynced_appends(), 0u);  // 5 >= n: group synced
}

// A group larger than the rotation threshold must be split at the segment
// boundary so the next segment's start_seq equals the previous segment's
// valid end — the contiguity invariant replay() enforces.
TEST_F(WalTest, GroupCommitSplitsAtRotationBoundary) {
  WalConfig config;
  config.segment_bytes = 128;
  {
    WalWriter writer(dir_, 0, config);
    const std::string blob(40, 'x');
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 5; ++i) writer.stage(payload(blob));
      writer.commit();  // each ~280-byte group spans >1 segment
    }
    writer.sync();
  }
  const auto segments = list_wal_segments(dir_, 0);
  ASSERT_GT(segments.size(), 2u);
  EXPECT_EQ(replay_all(0).size(), 20u);
  EXPECT_EQ(last_report_.next_seq, 20u);
  EXPECT_FALSE(last_report_.truncated_tail);
}

// Compressed block frames carry many logical records in one frame, staged
// with an explicit weight.  EveryN and the backlog gauge must count records
// (the durability contract is "lose at most n-1 RECORDS"), not frames.
TEST_F(WalTest, WeightedStagingCountsRecordsNotFrames) {
  WalConfig config;
  config.fsync = FsyncPolicy::EveryN;
  config.fsync_every_n = 10;
  WalWriter writer(dir_, 0, config);
  writer.stage(payload("block-a"), /*weight=*/4);
  writer.commit();
  EXPECT_EQ(writer.unsynced_appends(), 4u);  // 4 records, 1 frame
  writer.stage(payload("block-b"), /*weight=*/5);
  writer.commit();
  EXPECT_EQ(writer.unsynced_appends(), 9u);  // still below n
  writer.stage(payload("block-c"), /*weight=*/1);
  writer.commit();
  EXPECT_EQ(writer.unsynced_appends(), 0u);  // 10 >= n: group synced
  EXPECT_EQ(replay_all(0).size(), 3u);       // weights never invent frames
  EXPECT_EQ(last_report_.next_seq, 3u);
}

// Variable-length weighted frames (the compressed-payload shape: early
// frames ship key dictionaries and are large, steady-state frames are tiny)
// across forced rotations: group splits at segment boundaries must keep the
// contiguity invariant, prune must land on exact frame boundaries, and the
// record-weighted backlog must survive rotation splits.
TEST_F(WalTest, WeightedVariableLengthFramesAcrossRotationAndPrune) {
  WalConfig config;
  config.segment_bytes = 256;
  config.fsync = FsyncPolicy::EveryN;
  config.fsync_every_n = 1000;  // keep sync manual; backlog stays observable
  WalWriter writer(dir_, 0, config);
  std::size_t frames = 0;
  for (int round = 0; round < 12; ++round) {
    // First frame of a round is dictionary-heavy, the rest are small.
    for (int i = 0; i < 4; ++i) {
      const std::size_t size = i == 0 ? 150 : 10 + 7 * i;
      writer.stage(payload(std::string(size, char('a' + i))), /*weight=*/6);
      ++frames;
    }
    writer.commit();
    // Publication and mid-group rotation syncs both land on whole-frame
    // boundaries, so the record backlog is always a multiple of the frame
    // weight — a fractional frame would mean a split tore a frame apart.
    EXPECT_EQ(writer.unsynced_appends() % 6, 0u);
    EXPECT_LE(writer.unsynced_appends(), frames * 6);
  }
  writer.sync();
  EXPECT_EQ(writer.unsynced_appends(), 0u);

  const auto segments = list_wal_segments(dir_, 0);
  ASSERT_GT(segments.size(), 2u);
  for (std::size_t i = 1; i < segments.size(); ++i) {
    EXPECT_GT(segments[i].start_seq, segments[i - 1].start_seq);
  }
  EXPECT_EQ(replay_all(0).size(), frames);
  EXPECT_EQ(last_report_.next_seq, frames);
  EXPECT_FALSE(last_report_.truncated_tail);

  // Prune to a mid-log segment head: replay from the cut still reaches the
  // exact tail, and frames below the cut are gone wholesale.
  const std::uint64_t cut = segments[segments.size() / 2].start_seq;
  writer.prune_below(cut);
  EXPECT_LT(list_wal_segments(dir_, 0).size(), segments.size());
  const auto replayed = replay_all(0, cut);
  ASSERT_FALSE(replayed.empty());
  EXPECT_EQ(replayed.front().first, cut);
  EXPECT_EQ(replayed.back().first, frames - 1);
  EXPECT_EQ(last_report_.next_seq, frames);
  EXPECT_FALSE(last_report_.truncated_tail);
}

// Crash mid-group: a tear inside the third frame of a five-frame group must
// recover exactly the frames before it, bit-identically, and a reopened
// writer resumes at the cut.
TEST_F(WalTest, TornMidGroupTailRecoversValidPrefix) {
  WalConfig config;
  {
    WalWriter writer(dir_, 0, config);
    writer.append(payload("pre"));
    for (int i = 0; i < 5; ++i) {
      writer.stage(payload("group" + std::to_string(i)));
    }
    writer.commit();
    writer.sync();
  }
  // Each "groupN" frame is 4 (len) + 4 (crc) + 8 (seq) + 6 (payload) = 22
  // bytes; chopping 2 frames + 3 bytes lands the tear mid-frame inside the
  // group (frame seq 3 torn, 4-5 gone entirely).
  const auto segments = list_wal_segments(dir_, 0);
  ASSERT_EQ(segments.size(), 1u);
  const auto size = fs::file_size(segments[0].path);
  fs::resize_file(segments[0].path, size - (2 * 22 + 3));

  const auto frames = replay_all(0);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[1].second, "group0");
  EXPECT_EQ(frames[2].second, "group1");
  EXPECT_TRUE(last_report_.truncated_tail);
  EXPECT_EQ(last_report_.next_seq, 3u);

  WalWriter writer(dir_, 0, config);
  EXPECT_EQ(writer.next_seq(), 3u);
  writer.append(payload("resumed"));
  writer.sync();
  const auto after = replay_all(0);
  ASSERT_EQ(after.size(), 4u);
  EXPECT_EQ(after[3].second, "resumed");
  EXPECT_FALSE(last_report_.truncated_tail);
}

// -- durability policy hooks ------------------------------------------------

TEST_F(WalTest, SyncIfDueIsANoOpOutsideIntervalPolicy) {
  WalConfig config;
  config.fsync = FsyncPolicy::EveryN;
  config.fsync_every_n = 100;
  WalWriter writer(dir_, 0, config);
  writer.append(payload("x"));
  EXPECT_EQ(writer.unsynced_appends(), 1u);
  EXPECT_FALSE(writer.sync_if_due());  // EveryN's window is frames, not time
  EXPECT_EQ(writer.unsynced_appends(), 1u);
}

TEST_F(WalTest, SyncIfDueBoundsTheIdleLossWindow) {
  FakeClock clock;
  WalConfig config;
  config.fsync = FsyncPolicy::Interval;
  config.fsync_interval = std::chrono::milliseconds(50);
  config.clock = clock.fn();
  WalWriter writer(dir_, 0, config);

  EXPECT_FALSE(writer.sync_if_due());  // nothing unsynced yet
  writer.append(payload("idle"));
  // Without the hook this frame would stay unsynced until the NEXT append —
  // the unbounded idle-writer loss window.
  EXPECT_EQ(writer.unsynced_appends(), 1u);
  clock.advance(std::chrono::milliseconds(49));
  EXPECT_FALSE(writer.sync_if_due());  // interval has not elapsed
  EXPECT_EQ(writer.unsynced_appends(), 1u);

  clock.advance(std::chrono::milliseconds(1));  // exactly the interval
  EXPECT_TRUE(writer.sync_if_due());
  EXPECT_EQ(writer.unsynced_appends(), 0u);
  EXPECT_FALSE(writer.sync_if_due());  // already durable: no repeat sync
}

TEST_F(WalTest, IntervalPolicySyncsOnAppendOnceElapsed) {
  FakeClock clock;
  WalConfig config;
  config.fsync = FsyncPolicy::Interval;
  config.fsync_interval = std::chrono::milliseconds(50);
  config.clock = clock.fn();
  WalWriter writer(dir_, 0, config);

  writer.append(payload("a"));  // inside the window: stays unsynced
  writer.append(payload("b"));
  EXPECT_EQ(writer.unsynced_appends(), 2u);
  clock.advance(std::chrono::milliseconds(50));
  writer.append(payload("c"));  // interval elapsed: this append syncs all 3
  EXPECT_EQ(writer.unsynced_appends(), 0u);
  EXPECT_EQ(writer.durable_seq(), 3u);
}

// -- async durability mode --------------------------------------------------

TEST_F(WalTest, AsyncModeNeverSyncsInline) {
  WalConfig config;
  config.fsync = FsyncPolicy::EveryN;
  config.fsync_every_n = 2;  // would sync every other append under Sync
  config.mode = DurabilityMode::Async;
  WalWriter writer(dir_, 0, config);

  for (int i = 0; i < 5; ++i) writer.append(payload("x"));
  EXPECT_EQ(writer.published_seq(), 5u);
  EXPECT_EQ(writer.durable_seq(), 0u);  // no inline sync happened
  EXPECT_EQ(writer.unsynced_appends(), 5u);
  EXPECT_FALSE(writer.sync_if_due());  // the syncer owns the deadline

  // The syncer-side call makes the published watermark durable.
  EXPECT_EQ(writer.sync_published(), 5u);
  EXPECT_EQ(writer.durable_seq(), 5u);
  EXPECT_EQ(writer.unsynced_appends(), 0u);
  // Nothing new published: a second call is a cheap no-op at the watermark.
  EXPECT_EQ(writer.sync_published(), 5u);
}

TEST_F(WalTest, AsyncModeIntervalPolicyDoesNotSyncOnAppend) {
  FakeClock clock;
  WalConfig config;
  config.fsync = FsyncPolicy::Interval;
  config.fsync_interval = std::chrono::milliseconds(1);
  config.mode = DurabilityMode::Async;
  config.clock = clock.fn();
  WalWriter writer(dir_, 0, config);

  writer.append(payload("a"));
  clock.advance(std::chrono::milliseconds(10));  // interval long elapsed
  writer.append(payload("b"));  // Sync mode would fdatasync here
  EXPECT_EQ(writer.unsynced_appends(), 2u);
  EXPECT_EQ(writer.flush(), 2u);  // flush works regardless of mode
  EXPECT_EQ(writer.unsynced_appends(), 0u);
}

TEST_F(WalTest, AsyncStagedFramesAreNotPublishedUntilCommit) {
  WalConfig config;
  config.mode = DurabilityMode::Async;
  WalWriter writer(dir_, 0, config);

  writer.stage(payload("g0"));
  writer.stage(payload("g1"));
  EXPECT_EQ(writer.published_seq(), 0u);  // staged frames never hit write(2)
  EXPECT_EQ(writer.sync_published(), 0u);  // nothing for the syncer to do
  writer.commit();
  EXPECT_EQ(writer.published_seq(), 2u);
  EXPECT_EQ(writer.durable_seq(), 0u);
  EXPECT_EQ(writer.sync_published(), 2u);
}

// Rotation must keep the "only the current segment holds non-durable bytes"
// invariant even under Async: the outgoing segment is synced inline at the
// switch, so durable_seq can never lag behind a closed segment.
TEST_F(WalTest, AsyncRotationSyncsTheOutgoingSegment) {
  WalConfig config;
  config.segment_bytes = 128;
  config.fsync = FsyncPolicy::EveryN;
  config.fsync_every_n = 1000;  // policy alone would never sync
  config.mode = DurabilityMode::Async;
  WalWriter writer(dir_, 0, config);

  const std::string blob(40, 'x');
  for (int i = 0; i < 20; ++i) writer.append(payload(blob));
  const auto segments = list_wal_segments(dir_, 0);
  ASSERT_GT(segments.size(), 2u);
  // Everything up to the newest segment's start is durable; only current-
  // segment frames can be in the loss window.
  EXPECT_GE(writer.durable_seq(), segments.back().start_seq);
  EXPECT_EQ(writer.published_seq(), 20u);
  EXPECT_LE(writer.unsynced_appends(), 20u - segments.back().start_seq);

  writer.sync_published();
  EXPECT_EQ(writer.durable_seq(), 20u);
  EXPECT_EQ(replay_all(0).size(), 20u);
}

TEST_F(WalTest, AlwaysPolicyStaysInlineUnderAsync) {
  WalConfig config;
  config.fsync = FsyncPolicy::Always;
  config.mode = DurabilityMode::Async;  // must be ignored for Always
  WalWriter writer(dir_, 0, config);
  writer.append(payload("x"));
  EXPECT_EQ(writer.unsynced_appends(), 0u);  // synced on the append itself
  EXPECT_EQ(writer.durable_seq(), 1u);
}

// -- segment listing --------------------------------------------------------

// Regression: the listing used to slice the start_seq digits at a hardcoded
// offset 9 ("wal-%04u-" for 4-digit shards), so shards >= 10000 — whose
// printed prefix is wider — parsed as garbage and silently vanished from
// replay and prune.
TEST_F(WalTest, FiveDigitShardIdSegmentsAreListed) {
  WalConfig config;
  config.segment_bytes = 128;
  const std::uint32_t shard = 12345;
  WalWriter writer(dir_, shard, config);
  const std::string blob(40, 'w');
  for (int i = 0; i < 10; ++i) writer.append(payload(blob));
  writer.sync();

  const auto segments = list_wal_segments(dir_, shard);
  ASSERT_GT(segments.size(), 1u);
  EXPECT_EQ(segments.front().start_seq, 0u);
  EXPECT_EQ(replay_all(shard).size(), 10u);
  EXPECT_EQ(last_report_.next_seq, 10u);

  // Pruning runs off the same listing.
  writer.prune_below(segments.back().start_seq);
  EXPECT_LT(list_wal_segments(dir_, shard).size(), segments.size());

  // A shard whose printed id is a digit-prefix of another must not adopt its
  // neighbour's segments (the "-" separator disambiguates).
  WalWriter neighbour(dir_, 1234, config);
  neighbour.append(payload("n"));
  neighbour.sync();
  EXPECT_EQ(list_wal_segments(dir_, 1234).size(), 1u);
  EXPECT_EQ(replay_all(1234).size(), 1u);
}

// The invariant behind replay's next_seq bookkeeping: a frameless first
// segment (header only) still reports its start_seq, not zero.
TEST_F(WalTest, HeaderOnlyFirstSegmentReportsStartSeq) {
  WalConfig config;
  { WalWriter writer(dir_, 0, config, 7); }  // opens segment 7, writes nothing
  const auto frames = replay_all(0);
  EXPECT_TRUE(frames.empty());
  EXPECT_EQ(last_report_.next_seq, 7u);
  EXPECT_FALSE(last_report_.truncated_tail);
}

// -- fault injection --------------------------------------------------------

TEST_F(WalTest, TornTailIsTruncatedOnReplayAndReopen) {
  WalConfig config;
  {
    WalWriter writer(dir_, 0, config);
    for (int i = 0; i < 5; ++i) writer.append(payload("frame" + std::to_string(i)));
    writer.sync();
  }
  // Tear the last frame: chop 3 bytes off the segment, as a crash mid-write
  // would.
  const auto segments = list_wal_segments(dir_, 0);
  ASSERT_EQ(segments.size(), 1u);
  const auto size = fs::file_size(segments[0].path);
  fs::resize_file(segments[0].path, size - 3);

  const auto frames = replay_all(0);
  ASSERT_EQ(frames.size(), 4u);  // the torn 5th frame is gone
  EXPECT_TRUE(last_report_.truncated_tail);
  EXPECT_EQ(last_report_.next_seq, 4u);

  // Reopening the writer repairs the tail and resumes at the cut.
  WalWriter writer(dir_, 0, config);
  EXPECT_EQ(writer.next_seq(), 4u);
  writer.append(payload("replacement"));
  writer.sync();
  const auto after = replay_all(0);
  ASSERT_EQ(after.size(), 5u);
  EXPECT_EQ(after[4].second, "replacement");
  EXPECT_FALSE(last_report_.truncated_tail);
}

TEST_F(WalTest, BitFlipStopsReplayAtLastValidFrame) {
  WalConfig config;
  {
    WalWriter writer(dir_, 0, config);
    for (int i = 0; i < 6; ++i) writer.append(payload("payload" + std::to_string(i)));
    writer.sync();
  }
  const auto segments = list_wal_segments(dir_, 0);
  ASSERT_EQ(segments.size(), 1u);
  // Flip one bit roughly two-thirds into the file: frames before the flip
  // replay, everything at or past it is untrusted.
  const auto size = fs::file_size(segments[0].path);
  const auto at = static_cast<std::streamoff>(size * 2 / 3);
  std::fstream f(segments[0].path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(at);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  f.seekp(at);
  f.write(&byte, 1);
  f.close();

  const auto frames = replay_all(0);
  EXPECT_LT(frames.size(), 6u);
  EXPECT_TRUE(last_report_.truncated_tail);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].second, "payload" + std::to_string(i));
  }
}

TEST_F(WalTest, RepairDiscardsSuffixSegments) {
  WalConfig config;
  config.segment_bytes = 128;
  {
    WalWriter writer(dir_, 0, config);
    const std::string blob(40, 'y');
    for (int i = 0; i < 20; ++i) writer.append(payload(blob));
    writer.sync();
  }
  ASSERT_GT(list_wal_segments(dir_, 0).size(), 2u);
  repair_wal(dir_, 0, 5);
  const auto frames = replay_all(0);
  EXPECT_EQ(frames.size(), 5u);
  EXPECT_EQ(last_report_.next_seq, 5u);
  // A writer opened at the repaired position continues without forking.
  WalWriter writer(dir_, 0, config, 5);
  EXPECT_EQ(writer.next_seq(), 5u);
}

TEST_F(WalTest, ExpectedSeqMismatchFailsLoudly) {
  WalConfig config;
  {
    WalWriter writer(dir_, 0, config);
    for (int i = 0; i < 4; ++i) writer.append(payload("x"));
    writer.sync();
  }
  EXPECT_THROW(WalWriter(dir_, 0, config, 2), Error);
  EXPECT_NO_THROW(WalWriter(dir_, 0, config, 4));
}

TEST_F(WalTest, PruneBelowDropsWholeCoveredSegments) {
  WalConfig config;
  config.segment_bytes = 128;
  WalWriter writer(dir_, 0, config);
  const std::string blob(40, 'z');
  for (int i = 0; i < 20; ++i) writer.append(payload(blob));
  writer.sync();
  const auto before = list_wal_segments(dir_, 0);
  ASSERT_GT(before.size(), 2u);

  const std::uint64_t cut = before[before.size() / 2].start_seq;
  writer.prune_below(cut);
  const auto after = list_wal_segments(dir_, 0);
  EXPECT_LT(after.size(), before.size());
  // Replay from the prune point is unaffected.
  const auto frames = replay_all(0, cut);
  EXPECT_EQ(last_report_.next_seq, 20u);
  EXPECT_FALSE(last_report_.truncated_tail);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.front().first, cut);
  EXPECT_EQ(frames.back().first, 19u);
}

TEST_F(WalTest, MissingDirectoryReplaysEmpty) {
  const auto report = replay_wal(dir_ / "nope", 0, 0, [](const WalFrame&) {
    FAIL() << "no frames expected";
  });
  EXPECT_EQ(report.frames_delivered, 0u);
  EXPECT_EQ(report.next_seq, 0u);
  EXPECT_FALSE(report.truncated_tail);
}

}  // namespace
}  // namespace larp::persist
