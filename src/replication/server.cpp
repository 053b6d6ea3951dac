#include "replication/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>

#include "net/protocol.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "replication/log.hpp"
#include "replication/wire.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace larp::replication {

namespace {

using Clock = std::chrono::steady_clock;
using detail::read_available;
using detail::send_all;
using detail::wait_readable;

// Payload bytes per ReplFrames batch and per ReplSnapshotChunk, well under
// the 4 MiB wire frame cap.  A batch closes with the frame that reaches it,
// so one large WAL frame still ships whole.
constexpr std::size_t kFramePayloadBytes = 1u << 20;

std::uint64_t unix_millis() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ReplicationServer::ReplicationServer(serve::PredictionEngine& engine,
                                     ReplicationServerConfig config)
    : engine_(engine), config_(std::move(config)) {
  if (engine_.config().role != serve::EngineRole::kLeader) {
    throw InvalidArgument("ReplicationServer: engine must be a leader");
  }
  if (engine_.config().durability.data_dir.empty()) {
    throw InvalidArgument(
        "ReplicationServer: leader engine needs durability (replication "
        "ships its WAL)");
  }
}

ReplicationServer::~ReplicationServer() { stop(); }

void ReplicationServer::start() {
  if (running_.load()) return;
  listener_ = net::listen_tcp(config_.host, config_.port);
  port_ = net::local_port(listener_);
  running_.store(true);
  acceptor_ = std::thread([this] { acceptor_loop(); });
  LARP_LOG_INFO("repl") << "ReplicationServer: listening on " << config_.host
                        << ":" << port_;
}

void ReplicationServer::stop() {
  if (!running_.exchange(false)) return;
  if (acceptor_.joinable()) acceptor_.join();
  listener_.reset();
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard lock(sessions_mutex_);
    sessions.swap(sessions_);
  }
  for (auto& session : sessions) {
    // Poll loops notice running_ within one timeout tick.
    if (session->thread.joinable()) session->thread.join();
  }
  engine_.set_replication_floor({});
}

void ReplicationServer::acceptor_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    const int rc = wait_readable(listener_.get(), 100);
    if (rc < 0) break;
    if (rc == 0) continue;
    net::Fd conn = net::accept_conn(listener_);
    if (!conn.valid()) continue;
    auto session = std::make_unique<Session>();
    session->fd = std::move(conn);
    Session* raw = session.get();
    {
      std::lock_guard lock(sessions_mutex_);
      // Reap finished sessions so a long-lived leader does not accumulate
      // dead threads.
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        if ((*it)->done.load()) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          it = sessions_.erase(it);
        } else {
          ++it;
        }
      }
      sessions_.push_back(std::move(session));
    }
    sessions_total_.fetch_add(1, std::memory_order_relaxed);
    raw->thread = std::thread([this, raw] { session_loop(*raw); });
  }
}

void ReplicationServer::session_loop(Session& session) {
  try {
    serve_follower(session);
  } catch (const std::exception& e) {
    LARP_LOG_WARN("repl") << "follower session ended: " << e.what();
  }
  {
    std::lock_guard lock(sessions_mutex_);
    session.has_acked = false;
    refresh_retain_floor_locked();
  }
  session.fd.reset();
  session.done.store(true);
}

void ReplicationServer::refresh_retain_floor_locked() {
  const std::size_t shards = engine_.config().shards;
  std::vector<std::uint64_t> floor;
  for (const auto& session : sessions_) {
    if (!session->has_acked) continue;
    if (floor.empty()) {
      floor = session->acked;
    } else {
      for (std::size_t s = 0; s < shards && s < session->acked.size(); ++s) {
        floor[s] = std::min(floor[s], session->acked[s]);
      }
    }
  }
  engine_.set_replication_floor(floor);
}

bool ReplicationServer::ship_snapshot(Session& session,
                                      std::uint64_t hello_id) {
  const std::uint64_t epoch = engine_.snapshot();
  // Ship the file as validated and mapped: an unlink by retention leaves the
  // mapping readable, and nothing is copied.
  persist::LoadedSnapshot snapshot = persist::load_snapshot(
      persist::snapshot_path(engine_.config().durability.data_dir, epoch));
  const std::span<const std::byte> contents = snapshot.file.map();

  persist::io::Writer body;
  std::vector<std::byte> out;
  std::size_t offset = 0;
  do {
    const std::size_t n =
        std::min(kFramePayloadBytes, contents.size() - offset);
    const bool last = offset + n == contents.size();
    net::encode_repl_snapshot_chunk(body, hello_id, epoch, contents.size(),
                                    offset, contents.subspan(offset, n), last);
    out.clear();
    net::append_frame(out, body.bytes());
    if (!send_all(session.fd.get(), out)) return false;
    offset += n;
  } while (offset < contents.size());
  snapshots_shipped_.fetch_add(1, std::memory_order_relaxed);
  LARP_LOG_INFO("repl") << "shipped bootstrap snapshot epoch " << epoch << " ("
                        << contents.size() << " bytes)";
  return true;
}

void ReplicationServer::serve_follower(Session& session) {
  const int fd = session.fd.get();
  const std::size_t shards = engine_.config().shards;
  const auto& data_dir = engine_.config().durability.data_dir;
  net::FrameDecoder decoder;
  persist::io::Writer body;
  std::vector<std::byte> out;
  std::uint64_t next_id = 1;

  // Hold WAL pruning entirely while this follower is handshaking: until its
  // real positions are known, any frame could still be needed.
  {
    std::lock_guard lock(sessions_mutex_);
    session.acked.assign(shards, 0);
    session.has_acked = true;
    refresh_retain_floor_locked();
  }

  // Blocks until a complete frame of the expected type arrives (or the
  // server stops / the peer misbehaves).
  const auto read_frame =
      [&](net::MsgType expect) -> std::optional<std::vector<std::byte>> {
    for (;;) {
      std::span<const std::byte> frame;
      const auto status = decoder.next(frame);
      if (status == net::FrameDecoder::Status::kCorrupt) return std::nullopt;
      if (status == net::FrameDecoder::Status::kFrame) {
        persist::io::Reader r(frame);
        if (net::decode_header(r).type != expect) return std::nullopt;
        return std::vector<std::byte>(frame.begin(), frame.end());
      }
      if (!running_.load(std::memory_order_relaxed)) return std::nullopt;
      const int rc = wait_readable(fd, 100);
      if (rc < 0) return std::nullopt;
      if (rc == 1 && !read_available(fd, decoder)) return std::nullopt;
    }
  };

  const auto parse_hello =
      [](const std::vector<std::byte>& frame) -> net::ReplHello {
    persist::io::Reader r(frame);
    (void)net::decode_header(r);
    return net::decode_repl_hello(r);
  };

  // A hello position table is resumable when it names every shard, is not
  // ahead of the leader, and every position still sits inside the retained
  // log (at or past the oldest segment — or exactly at the log's start).
  const auto resumable = [&](const std::vector<std::uint64_t>& positions) {
    if (positions.size() != shards) return false;
    if (!covers(engine_.wal_positions(), positions)) {
      throw persist::CorruptData(
          "repl: follower is ahead of the leader — its directory belongs to "
          "a different history");
    }
    for (std::size_t s = 0; s < shards; ++s) {
      const auto segments =
          persist::list_wal_segments(data_dir, static_cast<std::uint32_t>(s));
      if (!segments.empty() && positions[s] < segments.front().start_seq) {
        return false;
      }
    }
    return true;
  };

  auto hello_frame = read_frame(net::MsgType::kReplHello);
  if (!hello_frame) return;
  net::ReplHello hello = parse_hello(*hello_frame);
  if (hello.proto_version != net::kReplProtocolVersion) {
    body.clear();
    net::encode_error(body, 0, net::ErrorCode::kBadRequest,
                      "unsupported replication protocol version");
    out.clear();
    net::append_frame(out, body.bytes());
    (void)send_all(fd, out);
    return;
  }

  if (!resumable(hello.positions)) {
    persist::io::Reader r(*hello_frame);
    const std::uint64_t hello_id = net::decode_header(r).id;
    if (!ship_snapshot(session, hello_id)) return;
    hello_frame = read_frame(net::MsgType::kReplHello);
    if (!hello_frame) return;
    hello = parse_hello(*hello_frame);
    if (!resumable(hello.positions)) {
      throw persist::CorruptData(
          "repl: follower positions invalid even after bootstrap");
    }
  }

  {
    std::lock_guard lock(sessions_mutex_);
    session.acked = hello.positions;
    refresh_retain_floor_locked();
  }
  LARP_LOG_INFO("repl") << "follower resuming at " << total_frames(hello.positions)
                        << " total frames";

  std::vector<WalTailer> tailers;
  tailers.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    tailers.emplace_back(data_dir, static_cast<std::uint32_t>(s),
                         hello.positions[s]);
  }

  std::vector<TailedFrame> tailed;
  std::vector<net::ReplFrame> repl_frames;
  auto last_heartbeat = Clock::time_point{};  // forces an immediate one
  while (running_.load(std::memory_order_relaxed)) {
    // Drain acks that have arrived.
    for (;;) {
      std::span<const std::byte> frame;
      const auto status = decoder.next(frame);
      if (status == net::FrameDecoder::Status::kCorrupt) return;
      if (status == net::FrameDecoder::Status::kNeedMore) break;
      persist::io::Reader r(frame);
      if (net::decode_header(r).type != net::MsgType::kReplAck) return;
      const auto acked = net::decode_repl_ack(r);
      std::lock_guard lock(sessions_mutex_);
      session.acked = acked;
      refresh_retain_floor_locked();
    }

    bool shipped = false;
    for (std::size_t s = 0; s < shards; ++s) {
      const TailStatus status =
          tailers[s].poll(tailed, kFramePayloadBytes);
      if (status == TailStatus::kUpToDate) continue;
      if (status != TailStatus::kFrames) {
        // kNeedsBootstrap: the retain floor was not enough (e.g. the floor
        // only engaged after a prune already ran).  kCorrupt: the log is
        // damaged.  Either way this session cannot continue; the follower
        // reconnects and the handshake sorts it out.
        LARP_LOG_WARN("repl") << "shard " << s << " tail status "
                              << static_cast<int>(status)
                              << "; dropping follower session";
        return;
      }
      repl_frames.clear();
      repl_frames.reserve(tailed.size());
      for (const auto& f : tailed) repl_frames.push_back({f.seq, f.payload});
      body.clear();
      net::encode_repl_frames(body, next_id++,
                              static_cast<std::uint32_t>(s), repl_frames);
      out.clear();
      net::append_frame(out, body.bytes());
      if (!send_all(fd, out)) return;
      frames_shipped_.fetch_add(repl_frames.size(),
                                std::memory_order_relaxed);
      shipped = true;
    }

    const auto now = Clock::now();
    if (now - last_heartbeat >= config_.heartbeat_interval) {
      const auto positions = engine_.wal_positions();
      body.clear();
      net::encode_repl_heartbeat(body, next_id++, unix_millis(), positions);
      out.clear();
      net::append_frame(out, body.bytes());
      if (!send_all(fd, out)) return;
      heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
      last_heartbeat = now;
    }

    if (!shipped) {
      const int rc = wait_readable(
          fd, static_cast<int>(config_.poll_interval.count()));
      if (rc < 0) return;
      if (rc == 1 && !read_available(fd, decoder)) return;
    }
  }
}

ReplicationServer::Stats ReplicationServer::stats() const {
  Stats stats;
  {
    std::lock_guard lock(sessions_mutex_);
    for (const auto& session : sessions_) {
      if (!session->done.load()) ++stats.followers_connected;
    }
  }
  stats.sessions_total = sessions_total_.load(std::memory_order_relaxed);
  stats.frames_shipped = frames_shipped_.load(std::memory_order_relaxed);
  stats.snapshots_shipped = snapshots_shipped_.load(std::memory_order_relaxed);
  stats.heartbeats_sent = heartbeats_sent_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace larp::replication
