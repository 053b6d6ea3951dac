// Crash recovery and follower join, measured on the engine a workload built.
//
// Snapshots are taken of the live leader between rounds; after a tail of
// rounds the leader's directory is copied as the crash image and the
// leader's next forecasts are recorded.  Each restore and each follower
// catch-up then runs on a fresh copy of that image, and must reproduce those
// forecasts bit for bit.
#pragma once

#include <filesystem>
#include <functional>

#include "common.hpp"
#include "fleet.hpp"

namespace perfbench {

struct RecoveryPlan {
  /// Snapshots taken, and restores and catch-ups run (each is reported as
  /// the median of this many).
  std::size_t repetitions = 5;
  std::size_t rounds_between = 2;  // leader rounds before each snapshot
  std::size_t tail_rounds = 16;    // leader rounds after the last snapshot
  std::size_t threads = 2;  // workers of each restored or follower engine
  /// Traced runs only: the per-layer probes (raw WAL read, tail without
  /// apply).
  bool layer_probes = false;
};

struct RecoveryResult {
  std::vector<double> snapshot_s;
  std::vector<double> max_pause_s;
  std::vector<double> restore_s;
  std::vector<double> catchup_s;
  std::vector<double> follower_restore_s;  // snapshot-only restore part
  double apply_seconds = 0.0;              // inside replicate_frames
  std::uint64_t applied_frames = 0;
  std::uint64_t image_bytes = 0;     // whole crash image
  std::uint64_t snapshot_bytes = 0;  // newest snapshot file
  std::uint64_t wal_bytes = 0;       // WAL segments in the image
  double wal_read_mb_per_s = 0.0;
  double tail_mb_per_s = 0.0;
};

/// `leader_dir` is the leader's durability data_dir, or empty for a leader
/// without durability (snapshots then go to a directory of their own and the
/// image is the last snapshot alone, so the plan's tail must be 0).
/// `rounds(n)` runs n more leader rounds.
[[nodiscard]] RecoveryResult run_recovery(
    larp::serve::PredictionEngine& leader, const std::filesystem::path& leader_dir,
    const std::function<void(std::size_t)>& rounds,
    std::span<const SeriesKey> keys, const RecoveryPlan& plan,
    const std::filesystem::path& scratch, Failures& failures, Tracer& tracer);

}  // namespace perfbench
