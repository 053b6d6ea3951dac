// Behavior tests for streaming WAL replication: the WalTailer position
// reader, follower engine invariants, and full leader/follower convergence
// over loopback TCP — including the two chaos cases the subsystem exists to
// survive (follower killed mid-stream, leader torn mid-group by a write
// fault) and the staleness bound on follower reads.
//
// The convergence oracle is bit-identity: once a follower's position covers
// the leader's, both engines forecast the same keys and every Prediction
// field must match to the last bit (compared through std::bit_cast, so NaN
// payloads count too).  Replication ships the leader's WAL bytes verbatim
// and the follower replays them through the same deterministic code path as
// crash recovery, so anything weaker than bit-identity is a bug.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "persist/file.hpp"
#include "persist/io.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "predictors/pool.hpp"
#include "replication/log.hpp"
#include "replication/replica.hpp"
#include "replication/server.hpp"
#include "serve/prediction_engine.hpp"
#include "serve/wal_codec.hpp"
#include "util/error.hpp"

namespace larp::replication {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

fs::path test_dir(const char* tag) {
  return fs::path(::testing::TempDir()) /
         ("larp_repl_" +
          std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
          "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name() +
          "_" + tag);
}

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string text_of(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

// ---------------------------------------------------------------------------
// WalTailer
// ---------------------------------------------------------------------------

class WalTailerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir("wal");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(WalTailerTest, DeliversCommittedFramesAndWaits) {
  persist::WalWriter writer(dir_, 0, persist::WalConfig{}, 0);
  for (int i = 0; i < 5; ++i) {
    writer.append(bytes_of("frame-" + std::to_string(i)));
  }

  WalTailer tailer(dir_, 0, 0);
  std::vector<TailedFrame> frames;
  ASSERT_EQ(tailer.poll(frames, 1u << 20), TailStatus::kFrames);
  ASSERT_EQ(frames.size(), 5u);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].seq, i);
    const std::string expect = "frame-" + std::to_string(i);
    ASSERT_EQ(frames[i].payload.size(), expect.size());
    EXPECT_EQ(std::memcmp(frames[i].payload.data(), expect.data(),
                          expect.size()),
              0);
  }
  EXPECT_EQ(tailer.position(), 5u);

  // Nothing new: the tailer holds its position and keeps polling.
  EXPECT_EQ(tailer.poll(frames, 1u << 20), TailStatus::kUpToDate);
  EXPECT_EQ(tailer.position(), 5u);

  // A live append shows up on the next poll.
  writer.append(bytes_of("frame-5"));
  ASSERT_EQ(tailer.poll(frames, 1u << 20), TailStatus::kFrames);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].seq, 5u);
}

TEST_F(WalTailerTest, FollowsSegmentRotation) {
  persist::WalConfig config;
  config.segment_bytes = 64;  // force rotation every couple of frames
  persist::WalWriter writer(dir_, 0, config, 0);
  for (int i = 0; i < 20; ++i) {
    writer.append(bytes_of("rotating-payload-" + std::to_string(i)));
  }
  ASSERT_GT(persist::list_wal_segments(dir_, 0).size(), 2u);

  // Every payload a poll returns must still read as written, whichever
  // segment it came from: the budget is far above the whole log, so only
  // the one-segment-per-poll rule keeps earlier segments' bytes alive.
  WalTailer tailer(dir_, 0, 0);
  std::vector<TailedFrame> frames;
  std::uint64_t next = 0;
  while (tailer.poll(frames, 1u << 20) == TailStatus::kFrames) {
    for (const auto& f : frames) {
      EXPECT_EQ(f.seq, next++);
      EXPECT_EQ(text_of(f.payload),
                "rotating-payload-" + std::to_string(f.seq));
    }
  }
  EXPECT_EQ(next, 20u);
  EXPECT_EQ(tailer.position(), 20u);
}

TEST_F(WalTailerTest, RespectsByteBudgetAcrossPolls) {
  persist::WalWriter writer(dir_, 0, persist::WalConfig{}, 0);
  for (int i = 0; i < 10; ++i) {
    writer.append(bytes_of(std::string(10, 'x')));
  }

  WalTailer tailer(dir_, 0, 0);
  std::vector<TailedFrame> frames;
  std::uint64_t delivered = 0;
  int polls = 0;
  while (tailer.poll(frames, 25) == TailStatus::kFrames) {
    EXPECT_FALSE(frames.empty());
    EXPECT_LE(frames.size(), 3u);  // 25-byte budget over 10-byte payloads
    delivered += frames.size();
    ++polls;
  }
  EXPECT_EQ(delivered, 10u);
  EXPECT_GE(polls, 4);
}

TEST_F(WalTailerTest, PrunedPositionNeedsBootstrap) {
  persist::WalConfig config;
  config.segment_bytes = 64;
  persist::WalWriter writer(dir_, 0, config, 0);
  for (int i = 0; i < 20; ++i) {
    writer.append(bytes_of("rotating-payload-" + std::to_string(i)));
  }
  writer.prune_below(15);
  ASSERT_GT(persist::list_wal_segments(dir_, 0).front().start_seq, 0u);

  WalTailer stale(dir_, 0, 0);
  std::vector<TailedFrame> frames;
  EXPECT_EQ(stale.poll(frames, 1u << 20), TailStatus::kNeedsBootstrap);

  // A position inside the retained range still reads fine.
  const std::uint64_t oldest =
      persist::list_wal_segments(dir_, 0).front().start_seq;
  WalTailer live(dir_, 0, oldest);
  std::uint64_t next = oldest;
  while (live.poll(frames, 1u << 20) == TailStatus::kFrames) {
    for (const auto& f : frames) EXPECT_EQ(f.seq, next++);
  }
  EXPECT_EQ(next, 20u);
}

TEST_F(WalTailerTest, TornTailReadsAsUpToDate) {
  persist::WalWriter writer(dir_, 0, persist::WalConfig{}, 0);
  for (int i = 0; i < 4; ++i) {
    writer.append(bytes_of("frame-" + std::to_string(i)));
  }
  // Fake an append in flight: garbage bytes at the end of the newest
  // segment that cannot parse as a complete frame.
  const auto segments = persist::list_wal_segments(dir_, 0);
  ASSERT_EQ(segments.size(), 1u);
  {
    std::ofstream torn(segments.back().path,
                       std::ios::binary | std::ios::app);
    const char junk[] = {0x40, 0x00, 0x00, 0x00, 0x13, 0x37};
    torn.write(junk, sizeof junk);
  }

  WalTailer tailer(dir_, 0, 0);
  std::vector<TailedFrame> frames;
  ASSERT_EQ(tailer.poll(frames, 1u << 20), TailStatus::kFrames);
  EXPECT_EQ(frames.size(), 4u);
  // The torn suffix is "no more frames yet", not corruption: the tailer
  // holds position 4 and waits for the writer (or repair) to finish it.
  EXPECT_EQ(tailer.poll(frames, 1u << 20), TailStatus::kUpToDate);
  EXPECT_EQ(tailer.position(), 4u);
}

TEST_F(WalTailerTest, DamageMidSequenceIsCorrupt) {
  persist::WalConfig config;
  config.segment_bytes = 64;
  persist::WalWriter writer(dir_, 0, config, 0);
  for (int i = 0; i < 20; ++i) {
    writer.append(bytes_of("rotating-payload-" + std::to_string(i)));
  }
  const auto segments = persist::list_wal_segments(dir_, 0);
  ASSERT_GT(segments.size(), 2u);

  // Flip one payload byte in the FIRST segment: a successor exists, so this
  // cannot be a tail in progress — it must surface as corruption.
  {
    std::fstream f(segments.front().path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(24 + 16 + 2);  // segment header + first frame header + 2
    char b = 0;
    f.seekg(24 + 16 + 2);
    f.get(b);
    b = static_cast<char>(b ^ 0x01);
    f.seekp(24 + 16 + 2);
    f.put(b);
  }

  WalTailer tailer(dir_, 0, 0);
  std::vector<TailedFrame> frames;
  EXPECT_EQ(tailer.poll(frames, 1u << 20), TailStatus::kCorrupt);
  EXPECT_EQ(tailer.position(), 0u);
}

TEST(ReplicationLog, CoversAndTotalFrames) {
  const std::vector<std::uint64_t> a = {3, 7};
  const std::vector<std::uint64_t> b = {3, 5};
  const std::vector<std::uint64_t> c = {4, 4};
  EXPECT_TRUE(covers(a, b));
  EXPECT_TRUE(covers(a, a));
  EXPECT_FALSE(covers(b, a));
  EXPECT_FALSE(covers(a, c));  // mixed: ahead on one shard, behind on other
  EXPECT_FALSE(covers(c, a));
  const std::vector<std::uint64_t> short_table = {10};
  EXPECT_FALSE(covers(a, short_table));  // size mismatch never covers
  EXPECT_FALSE(covers(short_table, a));
  EXPECT_EQ(total_frames(a), 10u);
  EXPECT_EQ(total_frames({}), 0u);
}

// ---------------------------------------------------------------------------
// Leader/follower engines over loopback
// ---------------------------------------------------------------------------

serve::EngineConfig tiny_config() {
  serve::EngineConfig config;
  config.lar.window = 5;
  config.shards = 2;
  config.threads = 1;
  config.train_samples = 12;
  config.audit_every = 0;
  return config;
}

tsdb::SeriesKey key_of(std::size_t s) {
  return {"vm" + std::to_string(s), "dev0", "cpu"};
}

constexpr std::size_t kSeries = 8;

// Hook state for the leader-crash test (file-scope: hooks are plain
// function pointers).  While armed, writes transfer at most the remaining
// byte budget and then hard-fail with EIO — a crash mid group-commit that
// leaves a torn frame on disk.
std::atomic<bool> g_fault_armed{false};
std::atomic<long long> g_fault_budget{0};

ssize_t torn_write_hook(int fd, const void* buf, std::size_t count) {
  if (!g_fault_armed.load()) return ::write(fd, buf, count);
  const long long left = g_fault_budget.load();
  if (left <= 0) {
    errno = EIO;
    return -1;
  }
  const std::size_t n =
      std::min(count, static_cast<std::size_t>(left));
  const ssize_t wrote = ::write(fd, buf, n);
  if (wrote > 0) g_fault_budget.fetch_sub(wrote);
  return wrote;
}

int passthrough_sync_hook(int fd) { return ::fdatasync(fd); }

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    leader_dir_ = test_dir("leader");
    follower_dir_ = test_dir("follower");
    fs::remove_all(leader_dir_);
    fs::remove_all(follower_dir_);
    start_leader(persist::WalConfig{});
  }

  /// (Re)starts a fresh leader, and its replication server, over an empty
  /// directory with the given WAL tuning.
  void start_leader(const persist::WalConfig& wal) {
    repl_.reset();
    leader_.reset();
    fs::remove_all(leader_dir_);
    serve::EngineConfig config = tiny_config();
    config.durability.data_dir = leader_dir_;
    config.durability.wal = wal;
    leader_ = std::make_unique<serve::PredictionEngine>(
        predictors::make_paper_pool(5), config);
    start_repl_server();
  }

  void TearDown() override {
    replica_.reset();
    repl_.reset();
    leader_.reset();
    fs::remove_all(leader_dir_);
    fs::remove_all(follower_dir_);
  }

  void start_repl_server() {
    ReplicationServerConfig config;
    config.heartbeat_interval = 20ms;
    config.poll_interval = 2ms;
    repl_ = std::make_unique<ReplicationServer>(*leader_, config);
    repl_->start();
  }

  std::unique_ptr<Replica> make_replica() {
    ReplicaConfig config;
    config.leader_port = repl_->port();
    config.data_dir = follower_dir_;
    config.engine.threads = 1;
    config.ack_interval = 5ms;
    config.reconnect_backoff = 20ms;
    return std::make_unique<Replica>(predictors::make_paper_pool(5),
                                     std::move(config));
  }

  /// Deterministic traffic: `rounds` observations per series, continuing
  /// from wherever previous feeds left off.
  void feed(std::size_t rounds) {
    std::vector<serve::Observation> batch(kSeries);
    for (std::size_t r = 0; r < rounds; ++r, ++tick_) {
      for (std::size_t s = 0; s < kSeries; ++s) {
        batch[s].key = key_of(s);
        batch[s].value =
            static_cast<double>(tick_) * 0.25 + static_cast<double>(s);
      }
      leader_->observe(batch);
    }
  }

  /// Blocks until the follower's position covers the leader's current one.
  [[nodiscard]] bool wait_covered(serve::PredictionEngine& follower,
                                  std::chrono::milliseconds timeout = 5s) {
    const auto target = leader_->wal_positions();
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      if (covers(follower.wal_positions(), target)) return true;
      std::this_thread::sleep_for(2ms);
    }
    return false;
  }

  static void expect_bit_identical(const serve::Prediction& a,
                                   const serve::Prediction& b) {
    EXPECT_EQ(a.ready, b.ready);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value),
              std::bit_cast<std::uint64_t>(b.value));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.uncertainty),
              std::bit_cast<std::uint64_t>(b.uncertainty));
  }

  /// Forecast every series on both engines and demand bit-identity.  The
  /// leader predicts first (the prediction itself appends kWalPredict
  /// frames), then the follower must cover that position before its
  /// read-only peek of the same keys.
  void expect_identical_forecasts(serve::PredictionEngine& follower) {
    std::vector<tsdb::SeriesKey> keys(kSeries);
    for (std::size_t s = 0; s < kSeries; ++s) keys[s] = key_of(s);
    const auto from_leader = leader_->predict(keys);
    ASSERT_TRUE(wait_covered(follower));
    std::vector<serve::Prediction> from_follower;
    follower.predict_into(keys, from_follower);
    ASSERT_EQ(from_follower.size(), from_leader.size());
    for (std::size_t s = 0; s < kSeries; ++s) {
      SCOPED_TRACE("series " + std::to_string(s));
      expect_bit_identical(from_leader[s], from_follower[s]);
    }
  }

  /// Kills a caught-up follower in the middle of a live stream, feeds the
  /// leader `rounds_down` more rounds while it is down, and restarts it
  /// over the same directory: it must resume from its own position — no
  /// snapshot re-ship — and converge.
  void expect_resume_without_rebootstrap(std::size_t rounds_down) {
    feed(16);
    replica_ = make_replica();
    replica_->start();
    ASSERT_NE(replica_->wait_until_ready(10s), nullptr);
    ASSERT_TRUE(wait_covered(*replica_->engine()));

    // A feeder keeps the leader appending while the replica is torn down
    // mid-flight.
    std::atomic<bool> feeding{true};
    std::thread feeder([&] {
      while (feeding.load()) {
        feed(1);
        std::this_thread::sleep_for(1ms);
      }
    });
    std::this_thread::sleep_for(20ms);
    replica_.reset();  // SIGKILL equivalent minus the process boundary
    std::this_thread::sleep_for(20ms);
    feeding = false;
    feeder.join();
    positions_at_kill_ = leader_->wal_positions();
    feed(rounds_down);

    // Restart over the same directory: the replica restores locally and
    // resumes the stream from its acked position.
    replica_ = make_replica();
    replica_->start();
    serve::PredictionEngine* follower = replica_->wait_until_ready(10s);
    ASSERT_NE(follower, nullptr);
    EXPECT_EQ(replica_->stats().bootstraps, 0u);

    feed(4);
    expect_identical_forecasts(*follower);
    EXPECT_EQ(repl_->stats().snapshots_shipped, 1u);  // bootstrap only, once
    EXPECT_GE(repl_->stats().sessions_total, 2u);
  }

  fs::path leader_dir_;
  fs::path follower_dir_;
  std::unique_ptr<serve::PredictionEngine> leader_;
  std::unique_ptr<ReplicationServer> repl_;
  std::unique_ptr<Replica> replica_;
  std::uint64_t tick_ = 0;
  // The leader's positions once the follower was down and the feeder done.
  std::vector<std::uint64_t> positions_at_kill_;
};

TEST_F(ReplicationTest, BootstrapConvergeBitIdenticalForecasts) {
  feed(16);  // past train_samples: forecasts are ready

  replica_ = make_replica();
  replica_->start();
  serve::PredictionEngine* follower = replica_->wait_until_ready(10s);
  ASSERT_NE(follower, nullptr);
  EXPECT_EQ(replica_->stats().bootstraps, 1u);
  EXPECT_EQ(repl_->stats().snapshots_shipped, 1u);

  feed(4);  // live frames on top of the bootstrap snapshot
  expect_identical_forecasts(*follower);

  const auto stats = follower->stats();
  EXPECT_GT(stats.replicated_frames, 0u);
  EXPECT_EQ(stats.series, kSeries);

  // Heartbeats the follower has covered drive the staleness clock: the lag
  // gauge must come down from "never confirmed" to something recent.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline &&
         follower->stats().replication_lag_seconds > 1.0) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_LT(follower->stats().replication_lag_seconds, 1.0);
  EXPECT_TRUE(follower->stats().replication_fresh);
}

// WAL payloads are opaque to replication: every leader above streams
// compressed block frames, and a leader restored from a v1 or v3 directory
// still holds per-op frames in its log.  A follower bootstrapped from that
// directory's snapshot alone must catch up over them, as perfbench's
// `recover` workload does, and then forecast bit-identically.
void expect_follower_catches_up_over_per_op_frames(const char* fixture_name) {
  const fs::path fixture = fs::path(LARP_PERSIST_TESTDATA_DIR) / fixture_name;
  ASSERT_TRUE(fs::exists(fixture)) << "missing committed fixture " << fixture;
  const fs::path leader_dir = test_dir("leader");
  const fs::path follower_dir = test_dir("follower");
  fs::remove_all(leader_dir);
  fs::remove_all(follower_dir);
  fs::copy(fixture, leader_dir, fs::copy_options::recursive);
  fs::create_directories(follower_dir);
  for (const auto& entry : fs::directory_iterator(fixture)) {
    if (entry.path().extension() == ".snap") {
      fs::copy_file(entry.path(), follower_dir / entry.path().filename());
    }
  }
  {
    serve::EngineConfig runtime;
    runtime.threads = 1;
    auto leader = serve::PredictionEngine::restore(
        predictors::make_paper_pool(5), leader_dir, runtime);
    runtime.role = serve::EngineRole::kFollower;
    auto follower = serve::PredictionEngine::restore(
        predictors::make_paper_pool(5), follower_dir, runtime);

    std::size_t per_op_frames = 0;
    std::vector<TailedFrame> tailed;
    std::vector<serve::ReplicatedFrame> frames;
    const auto start = follower->wal_positions();
    for (std::uint32_t shard = 0; shard < start.size(); ++shard) {
      WalTailer tailer(leader_dir, shard, start[shard]);
      for (;;) {
        const TailStatus status = tailer.poll(tailed, 1u << 20);
        if (status != TailStatus::kFrames) {
          ASSERT_EQ(status, TailStatus::kUpToDate) << "shard " << shard;
          break;
        }
        frames.clear();
        for (const auto& f : tailed) {
          frames.push_back({f.seq, f.payload});
          if (!serve::WalPayloadCodec::is_block(f.payload)) ++per_op_frames;
        }
        follower->replicate_frames(shard, frames);
      }
    }
    // The fixture's WAL tail: 5 rounds of predict + observe over 6 series.
    EXPECT_EQ(per_op_frames, 5u * 2u * 6u);
    EXPECT_TRUE(covers(follower->wal_positions(), leader->wal_positions()));

    std::vector<tsdb::SeriesKey> keys;
    for (std::size_t s = 0; s < 6; ++s) {
      keys.push_back({"host" + std::to_string(s / 2),
                      "dev" + std::to_string(s % 2), "cpu"});
    }
    std::vector<serve::Prediction> from_follower;
    follower->predict_into(keys, from_follower);
    const auto from_leader = leader->predict(keys);
    for (std::size_t s = 0; s < keys.size(); ++s) {
      SCOPED_TRACE("series " + std::to_string(s));
      EXPECT_TRUE(from_leader[s].ready);
      EXPECT_EQ(from_leader[s].label, from_follower[s].label);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(from_leader[s].value),
                std::bit_cast<std::uint64_t>(from_follower[s].value));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(from_leader[s].uncertainty),
                std::bit_cast<std::uint64_t>(from_follower[s].uncertainty));
    }
  }
  fs::remove_all(leader_dir);
  fs::remove_all(follower_dir);
}

TEST(FollowerCatchUp, PerOpFramesFromGoldenV3LeaderApplyBitIdentically) {
  expect_follower_catches_up_over_per_op_frames("engine-v3");
}

// The v1 snapshot keeps each shard's watermark in its section head rather
// than in a table; the follower still starts exactly where the leader's
// per-op tail begins.
TEST(FollowerCatchUp, PerOpFramesFromGoldenV1LeaderApplyBitIdentically) {
  expect_follower_catches_up_over_per_op_frames("engine-v1");
}

TEST_F(ReplicationTest, FollowerKilledMidStreamResumesWithoutRebootstrap) {
  expect_resume_without_rebootstrap(0);
}

// The same kill and resume against a leader whose segments rotate every few
// frames: the resumed follower's position lies several segments behind the
// write head, so the leader tails it across rotations.
TEST_F(ReplicationTest, FollowerResumesAcrossSegmentRotations) {
  persist::WalConfig wal;
  wal.segment_bytes = 256;
  start_leader(wal);
  expect_resume_without_rebootstrap(40);
  ASSERT_FALSE(HasFatalFailure());
  // Segments the leader opened while the follower was down: the resume
  // tailed across every one of them.
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    std::size_t rotations = 0;
    for (const auto& seg : persist::list_wal_segments(leader_dir_, shard)) {
      if (seg.start_seq > positions_at_kill_[shard]) ++rotations;
    }
    EXPECT_GE(rotations, 3u) << "shard " << shard;
  }
}

TEST_F(ReplicationTest, LeaderTornMidGroupRecoversAndReconverges) {
  feed(16);
  replica_ = make_replica();
  replica_->start();
  ASSERT_NE(replica_->wait_until_ready(10s), nullptr);
  ASSERT_TRUE(wait_covered(*replica_->engine()));
  replica_.reset();  // follower down before the leader "crashes"

  // Crash the leader mid group-commit: the hook lets ~30 bytes of the next
  // WAL group reach disk, then fails hard.  observe() surfaces the failure;
  // the torn frame is exactly what a kill -9 would have left.
  {
    persist::testing::FaultInjectionGuard guard(torn_write_hook,
                                               passthrough_sync_hook);
    g_fault_budget = 30;
    g_fault_armed = true;
    EXPECT_THROW(feed(1), larp::Error);
    g_fault_armed = false;
  }
  repl_->stop();
  repl_.reset();
  const auto positions_at_crash = leader_->wal_positions();
  leader_.reset();  // destructor flush syncs the torn bytes; must not throw

  // Restore: recovery repairs the torn suffix, so the repaired log is a
  // prefix of what the follower may have seen — never behind it.
  serve::EngineConfig config = tiny_config();
  leader_ = serve::PredictionEngine::restore(predictors::make_paper_pool(5),
                                             leader_dir_, config);
  ASSERT_TRUE(covers(positions_at_crash, leader_->wal_positions()));
  start_repl_server();  // fresh ephemeral port

  // The follower restarts against the restored leader and reconverges.
  replica_ = make_replica();
  replica_->start();
  serve::PredictionEngine* follower = replica_->wait_until_ready(10s);
  ASSERT_NE(follower, nullptr);
  EXPECT_EQ(replica_->stats().bootstraps, 0u);

  feed(6);
  expect_identical_forecasts(*follower);
}

// ---------------------------------------------------------------------------
// Bootstrap from a leader that ships a corrupt snapshot
// ---------------------------------------------------------------------------

// A stand-in leader on a loopback socket: every connection it accepts gets
// `file` as one snapshot transfer in kChunk-byte chunks, however the
// follower greets it, and is then held until the follower hangs up.
class FakeLeader {
 public:
  static constexpr std::size_t kChunk = 500;

  FakeLeader(std::vector<std::byte> file, std::uint64_t epoch)
      : file_(std::move(file)), epoch_(epoch),
        listener_(net::listen_tcp("127.0.0.1", 0)),
        port_(net::local_port(listener_)),
        thread_([this] { serve(); }) {}
  ~FakeLeader() {
    serving_ = false;
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int transfers() const { return transfers_.load(); }

 private:
  void serve() {
    while (serving_.load()) {
      pollfd pfd{listener_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      net::Fd conn = net::accept_conn(listener_);
      if (!conn.valid()) continue;
      persist::io::Writer body;
      std::vector<std::byte> out;
      for (std::size_t offset = 0; offset < file_.size(); offset += kChunk) {
        const std::size_t n = std::min(kChunk, file_.size() - offset);
        net::encode_repl_snapshot_chunk(
            body, 1, epoch_, file_.size(), offset,
            std::span<const std::byte>(file_).subspan(offset, n),
            offset + n == file_.size());
        net::append_frame(out, body.bytes());
      }
      if (!send_all(conn.get(), out)) continue;
      transfers_.fetch_add(1);
      // Hold the connection until the follower drops it (or the test ends).
      std::byte sink[256];
      while (serving_.load()) {
        pfd = {conn.get(), POLLIN, 0};
        if (::poll(&pfd, 1, 20) <= 0) continue;
        if (::recv(conn.get(), sink, sizeof sink, 0) <= 0) break;
      }
    }
  }

  static bool send_all(int fd, std::span<const std::byte> bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n > 0) {
        bytes = bytes.subspan(static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        pollfd pfd{fd, POLLOUT, 0};
        (void)::poll(&pfd, 1, 20);
      } else {
        return false;
      }
    }
    return true;
  }

  std::vector<std::byte> file_;
  std::uint64_t epoch_;
  net::Fd listener_;
  std::uint16_t port_;
  std::atomic<bool> serving_{true};
  std::atomic<int> transfers_{0};
  std::thread thread_;
};

TEST(ReplicaBootstrap, CorruptSnapshotIsNeitherPublishedNorAdopted) {
  const fs::path source = test_dir("source");
  const fs::path follower_dir = test_dir("follower");
  fs::remove_all(source);
  fs::remove_all(follower_dir);
  // A real engine snapshot file with one payload byte flipped: the wire CRC
  // of every chunk is valid, only the file's own checksum fails.
  std::vector<std::byte> file;
  std::uint64_t epoch = 0;
  {
    serve::EngineConfig config = tiny_config();
    config.durability.data_dir = source;
    serve::PredictionEngine engine(predictors::make_paper_pool(5), config);
    for (int i = 0; i < 16; ++i) engine.observe(key_of(i % kSeries), 1.0 + i);
    epoch = engine.snapshot();
    file = persist::read_file(persist::snapshot_path(source, epoch));
  }
  ASSERT_GT(file.size(), 2 * FakeLeader::kChunk);
  file[file.size() / 2] ^= std::byte{0x01};

  FakeLeader leader(file, epoch);
  ReplicaConfig config;
  config.leader_port = leader.port();
  config.data_dir = follower_dir;
  config.engine.threads = 1;
  config.ack_interval = 5ms;
  config.reconnect_backoff = 20ms;
  Replica replica(predictors::make_paper_pool(5), config);
  replica.start();

  // Each attempt must fail and reconnect: wait for a second transfer, or
  // for the replica to (wrongly) come up.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline &&
         leader.transfers() < 2 && replica.engine() == nullptr) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GE(leader.transfers(), 2);
  EXPECT_EQ(replica.wait_until_ready(50ms), nullptr);
  EXPECT_EQ(replica.stats().bootstraps, 0u);
  replica.stop();

  EXPECT_TRUE(persist::list_snapshots(follower_dir).empty());
  for (const auto& entry : fs::directory_iterator(follower_dir)) {
    ADD_FAILURE() << "left behind: " << entry.path().filename();
  }
  fs::remove_all(source);
  fs::remove_all(follower_dir);
}

// ---------------------------------------------------------------------------
// Follower engine invariants (no network)
// ---------------------------------------------------------------------------

TEST(FollowerEngine, RejectsLocalMutation) {
  serve::EngineConfig config = tiny_config();
  config.role = serve::EngineRole::kFollower;
  serve::PredictionEngine follower(predictors::make_paper_pool(5), config);
  EXPECT_THROW(follower.observe(key_of(0), 1.0), StateError);
  EXPECT_THROW((void)follower.erase(key_of(0)), StateError);
}

TEST(FollowerEngine, RejectsSequenceGaps) {
  const fs::path dir = test_dir("gap");
  fs::remove_all(dir);
  serve::EngineConfig config = tiny_config();
  config.durability.data_dir = dir;
  {
    serve::PredictionEngine leader(predictors::make_paper_pool(5), config);
    for (int i = 0; i < 4; ++i) leader.observe(key_of(0), 1.0 + i);
  }
  // Every shard has a segment file from engine startup; the single series
  // landed in exactly one of them — probe both and tail the one with frames.
  std::uint32_t shard = 0;
  {
    std::vector<TailedFrame> probe;
    for (std::uint32_t s = 0; s < 2; ++s) {
      WalTailer t(dir, s, 0);
      if (t.poll(probe, 1u << 20) == TailStatus::kFrames) {
        shard = s;
        break;
      }
    }
  }
  WalTailer tailer(dir, shard, 0);  // outlives `tailed` (payloads borrow it)
  std::vector<TailedFrame> tailed;
  ASSERT_EQ(tailer.poll(tailed, 1u << 20), TailStatus::kFrames);
  ASSERT_GE(tailed.size(), 2u);

  serve::EngineConfig follower_config = tiny_config();
  follower_config.role = serve::EngineRole::kFollower;
  serve::PredictionEngine follower(predictors::make_paper_pool(5),
                                   follower_config);
  // Opening with frame seq=1 while the shard expects 0 is a gap.
  const serve::ReplicatedFrame out_of_order[] = {
      {tailed[1].seq, tailed[1].payload}};
  EXPECT_THROW(follower.replicate_frames(shard, out_of_order), StateError);

  // In order applies cleanly and advances the shard position.
  const serve::ReplicatedFrame in_order[] = {{tailed[0].seq,
                                              tailed[0].payload},
                                             {tailed[1].seq,
                                              tailed[1].payload}};
  follower.replicate_frames(shard, in_order);
  EXPECT_EQ(follower.wal_positions()[shard], 2u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Staleness-bounded reads
// ---------------------------------------------------------------------------

TEST(StalenessBoundedReads, LocalAndOverTheWire) {
  serve::EngineConfig config = tiny_config();
  config.role = serve::EngineRole::kFollower;
  config.max_staleness = 50ms;
  serve::PredictionEngine follower(predictors::make_paper_pool(5), config);
  const std::vector<tsdb::SeriesKey> keys = {key_of(0)};
  std::vector<serve::Prediction> out;

  // Never confirmed caught-up: every bounded read refuses.
  EXPECT_THROW(follower.predict_into(keys, out), serve::StaleRead);
  EXPECT_FALSE(follower.stats().replication_fresh);

  follower.note_caught_up();
  EXPECT_NO_THROW(follower.predict_into(keys, out));
  EXPECT_TRUE(follower.stats().replication_fresh);

  std::this_thread::sleep_for(80ms);  // outlive the 50ms bound
  EXPECT_THROW(follower.predict_into(keys, out), serve::StaleRead);
  EXPECT_FALSE(follower.stats().replication_fresh);

  // The wire maps StaleRead onto ErrorCode::kStale so a remote reader can
  // tell "too stale here, try another replica" from a hard failure.
  net::ServerConfig server_config;
  net::Server server(follower, server_config);
  server.start();
  net::Client client("127.0.0.1", server.port());
  try {
    client.predict(keys, out);
    FAIL() << "stale read served over the wire";
  } catch (const net::ServerError& e) {
    EXPECT_EQ(e.code(), net::ErrorCode::kStale);
  }
  follower.note_caught_up();
  EXPECT_NO_THROW(client.predict(keys, out));
  server.stop();
}

}  // namespace
}  // namespace larp::replication
