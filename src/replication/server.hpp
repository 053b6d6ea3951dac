// replication::ReplicationServer — the leader side of streaming WAL
// replication.
//
// One acceptor thread listens for follower connections; each follower gets
// its own session thread speaking the masked-CRC32C frame protocol:
//
//   follower                          leader
//   --------                          ------
//   ReplHello{positions}      ->
//                             <-      ReplSnapshotChunk* (only when the
//                                     positions are empty or predate the
//                                     retained log: a fresh snapshot is cut,
//                                     validated, and its file shipped from
//                                     the mapping in 1 MiB chunks)
//   ReplHello{new positions}  ->      (re-sent after a bootstrap restore)
//                             <-      ReplFrames / ReplHeartbeat stream
//   ReplAck{positions}        ->      (applied positions, on a cadence)
//
// Live frames come from persist::WalTailer — the segment files on disk, at
// most 1 MiB of payload per ReplFrames batch — so shipping never takes a
// shard lock.  Acked positions feed the engine's replication
// retain floor: snapshot() will not prune WAL segments a connected follower
// still needs, and a follower whose position predates the retained log is
// told to bootstrap instead.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "serve/prediction_engine.hpp"

namespace larp::replication {

struct ReplicationServerConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port().
  std::uint16_t port = 0;
  /// Heartbeat cadence (leader clock + published positions).
  std::chrono::milliseconds heartbeat_interval{100};
  /// Idle tail-poll cadence: how quickly new commits reach followers.
  std::chrono::milliseconds poll_interval{5};
};

class ReplicationServer {
 public:
  struct Stats {
    std::size_t followers_connected = 0;  // live sessions right now
    std::size_t sessions_total = 0;       // sessions ever accepted
    std::size_t frames_shipped = 0;       // WAL frames sent
    std::size_t snapshots_shipped = 0;    // bootstrap snapshots sent
    std::size_t heartbeats_sent = 0;
  };

  /// The engine must be a durable leader (role kLeader, data_dir set):
  /// replication ships its WAL.  Throws InvalidArgument otherwise.
  ReplicationServer(serve::PredictionEngine& engine,
                    ReplicationServerConfig config);
  ~ReplicationServer();

  ReplicationServer(const ReplicationServer&) = delete;
  ReplicationServer& operator=(const ReplicationServer&) = delete;

  /// Binds and spawns the acceptor.  Throws NetError when the bind fails.
  void start();
  /// Joins every session and the acceptor.  Idempotent; the destructor
  /// calls it.
  void stop();

  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] Stats stats() const;

 private:
  struct Session {
    net::Fd fd;
    std::thread thread;
    std::atomic<bool> done{false};
    /// This follower's latest acked positions (under sessions_mutex_).
    std::vector<std::uint64_t> acked;
    bool has_acked = false;
  };

  void acceptor_loop();
  void session_loop(Session& session);
  /// Runs one follower session on an open socket; returns on disconnect,
  /// protocol violation, or stop().
  void serve_follower(Session& session);
  /// Cuts a fresh snapshot and ships its file in chunks from the mapping
  /// load_snapshot() validated.  Returns false on a send failure.
  bool ship_snapshot(Session& session, std::uint64_t hello_id);
  /// Recomputes the engine's retain floor from every live session's acks
  /// (called with sessions_mutex_ held).
  void refresh_retain_floor_locked();

  serve::PredictionEngine& engine_;
  ReplicationServerConfig config_;
  net::Fd listener_;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> running_{false};

  mutable std::mutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;

  std::atomic<std::size_t> sessions_total_{0};
  std::atomic<std::size_t> frames_shipped_{0};
  std::atomic<std::size_t> snapshots_shipped_{0};
  std::atomic<std::size_t> heartbeats_sent_{0};
};

}  // namespace larp::replication
