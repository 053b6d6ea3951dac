#include "replication/replica.hpp"

#include <algorithm>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "persist/snapshot.hpp"
#include "replication/log.hpp"
#include "replication/wire.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace larp::replication {

namespace {

using Clock = std::chrono::steady_clock;

// Ceiling of the reconnect backoff, which doubles from reconnect_backoff.
constexpr std::chrono::milliseconds kMaxBackoff{2000};

}  // namespace

Replica::Replica(predictors::PredictorPool pool_prototype, ReplicaConfig config)
    : pool_prototype_(std::move(pool_prototype)), config_(std::move(config)) {
  if (config_.data_dir.empty()) {
    throw InvalidArgument("Replica: data_dir is required (replicated frames "
                          "are WAL-logged locally before applying)");
  }
  config_.engine.role = serve::EngineRole::kFollower;
  config_.engine.durability.data_dir = config_.data_dir;
}

Replica::~Replica() { stop(); }

void Replica::start() {
  if (running_.exchange(true)) return;
  // A follower that already has durable state serves reads immediately —
  // before the leader is even reachable (it reports stale until the stream
  // catches up, which is exactly what max_staleness is for).
  if (!engine_ && !persist::list_snapshots(config_.data_dir).empty()) {
    adopt_engine();
  }
  thread_ = std::thread([this] { run(); });
}

void Replica::stop() {
  running_.store(false);
  if (thread_.joinable()) thread_.join();
  connected_.store(false);
}

serve::PredictionEngine* Replica::wait_until_ready(
    std::chrono::milliseconds timeout) {
  std::unique_lock lock(ready_mutex_);
  ready_cv_.wait_for(lock, timeout, [&] {
    return engine_ptr_.load(std::memory_order_acquire) != nullptr ||
           failed_.load() || !running_.load();
  });
  return engine_ptr_.load(std::memory_order_acquire);
}

Replica::Stats Replica::stats() const {
  Stats stats;
  stats.reconnects = reconnects_.load(std::memory_order_relaxed);
  stats.bootstraps = bootstraps_.load(std::memory_order_relaxed);
  stats.connected = connected_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  return stats;
}

void Replica::adopt_engine() {
  auto engine = serve::PredictionEngine::restore(pool_prototype_.clone(),
                                                 config_.data_dir,
                                                 config_.engine);
  {
    std::lock_guard lock(ready_mutex_);
    engine_ = std::move(engine);
    engine_ptr_.store(engine_.get(), std::memory_order_release);
  }
  ready_cv_.notify_all();
}

void Replica::run() {
  auto backoff = config_.reconnect_backoff;
  bool first_attempt = true;
  while (running_.load(std::memory_order_relaxed)) {
    if (!first_attempt) reconnects_.fetch_add(1, std::memory_order_relaxed);
    first_attempt = false;
    try {
      stream_once();
      backoff = config_.reconnect_backoff;  // clean disconnect: fast retry
    } catch (const std::exception& e) {
      if (running_.load(std::memory_order_relaxed)) {
        LARP_LOG_WARN("repl") << "replica stream ended: " << e.what();
      }
    }
    connected_.store(false);
    if (failed_.load() || !running_.load(std::memory_order_relaxed)) break;
    auto remaining = backoff;
    while (running_.load(std::memory_order_relaxed) &&
           remaining > std::chrono::milliseconds::zero()) {
      const auto step = std::min(remaining, std::chrono::milliseconds(50));
      std::this_thread::sleep_for(step);
      remaining -= step;
    }
    backoff = std::min(backoff * 2, kMaxBackoff);
  }
  ready_cv_.notify_all();  // wake wait_until_ready() on failure/stop
}

void Replica::stream_once() {
  net::Fd fd = net::connect_tcp(
      config_.leader_host, config_.leader_port,
      static_cast<std::uint32_t>(config_.connect_timeout.count()));
  detail::make_nonblocking(fd.get());
  connected_.store(true);

  net::FrameDecoder decoder;
  persist::io::Writer body;
  std::vector<std::byte> out;
  std::uint64_t next_id = 1;

  const auto send_frame = [&] {
    out.clear();
    net::append_frame(out, body.bytes());
    if (!detail::send_all(fd.get(), out)) {
      throw net::NetError("repl: send to leader failed");
    }
  };
  const auto send_hello = [&] {
    std::vector<std::uint64_t> positions;
    if (engine_) positions = engine_->wal_positions();
    net::encode_repl_hello(body, next_id++, net::kReplProtocolVersion,
                           positions);
    send_frame();
  };
  send_hello();

  persist::SnapshotReceiver snapshot(config_.data_dir);
  std::vector<net::ReplFrame> frames;
  std::vector<serve::ReplicatedFrame> batch;
  auto last_ack = Clock::now();
  bool applied_since_ack = false;

  while (running_.load(std::memory_order_relaxed)) {
    for (;;) {
      std::span<const std::byte> frame;
      const auto status = decoder.next(frame);
      if (status == net::FrameDecoder::Status::kCorrupt) {
        throw net::NetError("repl: corrupt frame from leader");
      }
      if (status == net::FrameDecoder::Status::kNeedMore) break;
      persist::io::Reader r(frame);
      const net::FrameHeader header = net::decode_header(r);
      switch (header.type) {
        case net::MsgType::kReplSnapshotChunk: {
          const net::ReplSnapshotChunk chunk =
              net::decode_repl_snapshot_chunk(r);
          if (engine_) {
            // The engine pointer is already published to callers (the serve
            // front-end holds it), so it cannot be swapped out underneath
            // them.  Unrecoverable in-process: restart the follower.
            failed_.store(true);
            throw net::NetError(
                "repl: leader demands a re-bootstrap but the follower engine "
                "is live — its position predates the leader's retained log; "
                "restart the follower to bootstrap afresh");
          }
          // A chunk that breaks the transfer, or a file that fails
          // validation, throws: nothing is published and the replica
          // reconnects for a fresh bootstrap.
          if (!snapshot.add(chunk.epoch, chunk.total_bytes, chunk.offset,
                            chunk.data, chunk.last)) {
            break;
          }
          // Count the bootstrap BEFORE adopt_engine() publishes the engine:
          // wait_until_ready() returns the instant the pointer lands, and a
          // caller reading stats() right then must already see it.
          bootstraps_.fetch_add(1, std::memory_order_relaxed);
          adopt_engine();
          LARP_LOG_INFO("repl") << "bootstrapped from leader snapshot epoch "
                                << chunk.epoch;
          send_hello();
          break;
        }
        case net::MsgType::kReplFrames: {
          if (!engine_) {
            throw net::NetError("repl: leader streamed frames before the "
                                "follower was bootstrapped");
          }
          frames.clear();
          const std::uint32_t shard = net::decode_repl_frames(r, frames);
          batch.clear();
          batch.reserve(frames.size());
          for (const auto& f : frames) batch.push_back({f.seq, f.payload});
          engine_->replicate_frames(shard, batch);
          applied_since_ack = true;
          break;
        }
        case net::MsgType::kReplHeartbeat: {
          const net::ReplHeartbeat hb = net::decode_repl_heartbeat(r);
          if (engine_ && covers(engine_->wal_positions(), hb.positions)) {
            engine_->note_caught_up();
          }
          break;
        }
        case net::MsgType::kError: {
          const net::WireError err = net::decode_error(r);
          throw net::NetError("repl: leader refused the stream: " +
                              err.message);
        }
        default:
          throw net::NetError("repl: unexpected frame type from leader");
      }
    }

    const auto now = Clock::now();
    if (engine_ &&
        (applied_since_ack || now - last_ack >= config_.ack_interval)) {
      const auto positions = engine_->wal_positions();
      net::encode_repl_ack(body, next_id++, positions);
      send_frame();
      last_ack = now;
      applied_since_ack = false;
    }

    const int rc = detail::wait_readable(
        fd.get(), static_cast<int>(config_.ack_interval.count()));
    if (rc < 0) throw net::NetError("repl: connection to leader lost");
    if (rc == 1 && !detail::read_available(fd.get(), decoder)) {
      return;  // leader closed cleanly (e.g. its stop()); reconnect
    }
  }
}

}  // namespace larp::replication
