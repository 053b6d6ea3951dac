// replication::Replica — the follower side of streaming WAL replication.
//
// A Replica owns a background thread that connects to a leader's
// ReplicationServer, bootstraps a local PredictionEngine when it has no
// state of its own (the leader ships a snapshot file; the replica writes it
// to a temp file in its data_dir, publishes it only once persist validates
// it, and restores from it — so the follower's identity configuration comes
// from the leader, not from local flags), then
// applies the live kReplFrames stream through replicate_frames() and acks
// applied positions on a cadence.
//
// The engine it builds is a durable kFollower: frames are WAL-logged locally
// before applying, so a killed follower restarts from its own directory and
// resumes the stream from its acked position — no re-bootstrap.  Reads go
// through the usual PredictionEngine::predict() path, which enforces the
// configured max_staleness (heartbeats whose positions the replica has
// covered drive note_caught_up()).
//
// Reconnects are automatic with exponential backoff.  The one unrecoverable
// case is the leader demanding a re-bootstrap after the engine is live
// (e.g. the follower was partitioned long enough for the leader to prune
// past its position, under a snapshot cadence that outran the retain floor):
// the engine pointer is already published to callers, so the replica marks
// itself failed and stops — restart the follower process to re-bootstrap.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/prediction_engine.hpp"

namespace larp::replication {

struct ReplicaConfig {
  std::string leader_host = "127.0.0.1";
  std::uint16_t leader_port = 0;
  /// Local durability directory (required): bootstrap snapshots land here
  /// and replicated frames are WAL-logged here before applying.
  std::filesystem::path data_dir;
  /// Engine runtime knobs (threads, WAL tuning, max_staleness).  The role is
  /// forced to kFollower and durability.data_dir to `data_dir`; identity
  /// configuration (lar, quality, shards) comes from the leader's snapshot.
  serve::EngineConfig engine;
  std::chrono::milliseconds connect_timeout{1000};
  /// Ack cadence; also the stream-poll tick, so it bounds how quickly the
  /// replica notices new frames, heartbeats, and stop().
  std::chrono::milliseconds ack_interval{50};
  /// First reconnect delay; it doubles per failed attempt, up to 2 s.
  std::chrono::milliseconds reconnect_backoff{100};
};

class Replica {
 public:
  struct Stats {
    std::size_t reconnects = 0;  // connection attempts after the first
    std::size_t bootstraps = 0;  // snapshot bootstraps completed
    bool connected = false;
    bool failed = false;  // unrecoverable (see header comment); stop+restart
  };

  /// Throws InvalidArgument when data_dir is empty.
  Replica(predictors::PredictorPool pool_prototype, ReplicaConfig config);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Spawns the replication thread.  If data_dir already holds a snapshot,
  /// the engine is restored locally before the first connect (so a restarted
  /// follower serves reads immediately, before the leader is even reachable).
  void start();
  /// Joins the replication thread.  Idempotent; the destructor calls it.
  void stop();

  /// The follower engine, or nullptr until bootstrap/restore completes.
  /// Stable once non-null (valid until the Replica is destroyed).
  [[nodiscard]] serve::PredictionEngine* engine() const noexcept {
    return engine_ptr_.load(std::memory_order_acquire);
  }

  /// Blocks until engine() is non-null, the replica fails, or the timeout
  /// lapses.  Returns engine() (nullptr on timeout/failure).
  serve::PredictionEngine* wait_until_ready(std::chrono::milliseconds timeout);

  [[nodiscard]] Stats stats() const;

 private:
  void run();
  /// One connection's lifetime: handshake (+ bootstrap), stream, acks.
  /// Returns on disconnect or stop(); throws on protocol violations.
  void stream_once();
  /// Restores the engine from data_dir (follower role forced) and publishes
  /// it to engine().
  void adopt_engine();

  predictors::PredictorPool pool_prototype_;
  ReplicaConfig config_;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> failed_{false};
  std::atomic<bool> connected_{false};
  std::atomic<std::size_t> reconnects_{0};
  std::atomic<std::size_t> bootstraps_{0};

  mutable std::mutex ready_mutex_;
  std::condition_variable ready_cv_;
  std::unique_ptr<serve::PredictionEngine> engine_;  // owned; set once
  std::atomic<serve::PredictionEngine*> engine_ptr_{nullptr};
};

}  // namespace larp::replication
