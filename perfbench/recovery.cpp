#include "recovery.hpp"

#include <cstring>
#include <stdexcept>

#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "replication/log.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using larp::serve::PredictionEngine;

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Every forecast of `engine` must equal the leader's in every bit.
void verify(PredictionEngine& engine, std::span<const SeriesKey> keys,
            const std::vector<Prediction>& expected, const char* what,
            Failures& failures) {
  std::vector<Prediction> got;
  failures.attempted += keys.size();
  try {
    engine.predict_into(keys, got);
  } catch (const std::exception& e) {
    failures.fail(keys.size(), std::string(what) + " predict: " + e.what());
    return;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Prediction& a = got[i];
    const Prediction& b = expected[i];
    if (a.ready != b.ready || a.label != b.label || !same_bits(a.value, b.value) ||
        !same_bits(a.uncertainty, b.uncertainty)) {
      failures.fail(1, std::string(what) + " forecast differs from the leader's for " +
                           keys[i].to_string());
    }
  }
}

fs::path newest_snapshot(const fs::path& dir) {
  const auto snapshots = larp::persist::list_snapshots(dir);
  if (snapshots.empty()) throw std::runtime_error("no snapshot in " + dir.string());
  return snapshots.back().path;
}

}  // namespace

RecoveryResult run_recovery(PredictionEngine& leader, const fs::path& leader_dir,
                            const std::function<void(std::size_t)>& rounds,
                            std::span<const SeriesKey> keys,
                            const RecoveryPlan& plan, const fs::path& scratch,
                            Failures& failures, Tracer& tracer) {
  const bool durable = !leader_dir.empty();
  if (!durable && plan.tail_rounds != 0) {
    throw std::invalid_argument("recovery: a leader without a WAL has no tail");
  }
  RecoveryResult result;
  const fs::path snapshot_dir = durable ? leader_dir : scratch / "snapshots";
  for (std::size_t k = 0; k < plan.repetitions; ++k) {
    rounds(plan.rounds_between);
    ++failures.attempted;
    const auto t0 = Clock::now();
    {
      Span s(&tracer, "persist.snapshot", k);
      (void)(durable ? leader.snapshot() : leader.snapshot(snapshot_dir));
    }
    result.snapshot_s.push_back(seconds_between(t0, Clock::now()));
    result.max_pause_s.push_back(leader.stats().snapshot_max_pause_seconds);
  }
  rounds(plan.tail_rounds);

  const fs::path image = scratch / "image";
  copy_dir(snapshot_dir, image);
  const auto leader_positions = leader.wal_positions();
  std::vector<Prediction> expected;
  leader.predict_into(keys, expected);
  result.image_bytes = dir_bytes(image);
  result.snapshot_bytes = fs::file_size(newest_snapshot(image));
  result.wal_bytes = prefixed_bytes(image, "wal-");

  larp::serve::EngineConfig config = serve_config(plan.threads);
  config.durability.wal = leader.config().durability.wal;

  const fs::path restore_dir = scratch / "restore";
  for (std::size_t i = 0; i < plan.repetitions; ++i) {
    copy_dir(image, restore_dir);
    ++failures.attempted;
    std::unique_ptr<PredictionEngine> restored;
    const auto t0 = Clock::now();
    try {
      Span s(&tracer, "persist.restore", i);
      restored = PredictionEngine::restore(serve_pool(), restore_dir, config);
    } catch (const std::exception& e) {
      failures.fail(1, std::string("restore: ") + e.what());
      continue;
    }
    result.restore_s.push_back(seconds_between(t0, Clock::now()));
    verify(*restored, keys, expected, "restored", failures);
    restored.reset();
    fs::remove_all(restore_dir);
  }

  larp::serve::EngineConfig follower_config = config;
  follower_config.role = larp::serve::EngineRole::kFollower;
  const fs::path follower_dir = scratch / "follower";
  std::vector<std::uint64_t> start_positions;
  std::vector<larp::replication::TailedFrame> tailed;
  std::vector<larp::serve::ReplicatedFrame> frames;
  for (std::size_t i = 0; i < plan.repetitions; ++i) {
    fs::remove_all(follower_dir);
    fs::create_directories(follower_dir);
    const fs::path snapshot = newest_snapshot(image);
    fs::copy_file(snapshot, follower_dir / snapshot.filename());
    ++failures.attempted;
    std::unique_ptr<PredictionEngine> follower;
    double apply_seconds = 0.0;
    std::uint64_t applied = 0;
    const auto t0 = Clock::now();
    try {
      Span catchup(&tracer, "replication.catchup", i);
      {
        Span s(&tracer, "persist.restore", i);
        follower = PredictionEngine::restore(serve_pool(), follower_dir,
                                             follower_config);
      }
      result.follower_restore_s.push_back(seconds_between(t0, Clock::now()));
      start_positions = follower->wal_positions();
      for (std::uint32_t shard = 0; durable && shard < start_positions.size();
           ++shard) {
        larp::replication::WalTailer tailer(image, shard, start_positions[shard]);
        for (;;) {
          larp::replication::TailStatus status;
          {
            Span s(&tracer, "replication.poll", shard);
            status = tailer.poll(tailed, 4u << 20);
          }
          if (status == larp::replication::TailStatus::kUpToDate) break;
          if (status != larp::replication::TailStatus::kFrames) {
            throw std::runtime_error("tailer: shard " + std::to_string(shard) +
                                     " cannot be tailed from the image");
          }
          frames.clear();
          for (const auto& f : tailed) frames.push_back({f.seq, f.payload});
          const auto a0 = Clock::now();
          {
            Span s(&tracer, "replication.apply", shard);
            follower->replicate_frames(shard, frames);
          }
          apply_seconds += seconds_between(a0, Clock::now());
          applied += frames.size();
        }
      }
    } catch (const std::exception& e) {
      failures.fail(1, std::string("catch-up: ") + e.what());
      continue;
    }
    result.catchup_s.push_back(seconds_between(t0, Clock::now()));
    result.apply_seconds += apply_seconds;
    result.applied_frames += applied;
    if (!larp::replication::covers(follower->wal_positions(), leader_positions)) {
      failures.fail(1, "catch-up: follower positions do not cover the leader's");
    }
    verify(*follower, keys, expected, "follower", failures);
    follower.reset();
    fs::remove_all(follower_dir);
  }

  if (plan.layer_probes && durable && !start_positions.empty()) {
    // Raw WAL read: replay every retained frame into a no-op callback.
    std::uint64_t bytes = 0;
    auto t0 = Clock::now();
    for (std::uint32_t shard = 0; shard < start_positions.size(); ++shard) {
      Span s(&tracer, "persist.replay_wal", shard);
      (void)larp::persist::replay_wal(
          image, shard, 0,
          [&](const larp::persist::WalFrame& f) { bytes += f.payload.size(); });
    }
    double seconds = seconds_between(t0, Clock::now());
    result.wal_read_mb_per_s = seconds > 0.0 ? bytes / 1e6 / seconds : 0.0;
    // Tailing without applying, from the snapshot's positions.
    bytes = 0;
    t0 = Clock::now();
    for (std::uint32_t shard = 0; shard < start_positions.size(); ++shard) {
      Span s(&tracer, "replication.tail_only", shard);
      larp::replication::WalTailer tailer(image, shard, start_positions[shard]);
      while (tailer.poll(tailed, 4u << 20) ==
             larp::replication::TailStatus::kFrames) {
        for (const auto& f : tailed) bytes += f.payload.size();
      }
    }
    seconds = seconds_between(t0, Clock::now());
    result.tail_mb_per_s = seconds > 0.0 ? bytes / 1e6 / seconds : 0.0;
  }
  fs::remove_all(image);
  fs::remove_all(scratch / "snapshots");
  return result;
}

}  // namespace perfbench
