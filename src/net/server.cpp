#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <utility>

#include "persist/io.hpp"

namespace larp::net {
namespace {

using Clock = std::chrono::steady_clock;

// What kind of engine call the connection's pending frame run coalesces to.
enum class Run : std::uint8_t { kNone, kObserve, kPredict };

struct RunEntry {
  std::uint64_t id = 0;     // request id to ack
  std::size_t count = 0;    // items this frame contributed to the run
};

// Queued reply frames awaiting the wire.  Each frame keeps its own buffer
// (a ring of grown-only vectors, so steady state allocates nothing) and the
// flush path scatters up to kFlushIov of them into one sendmsg.  consume()
// implements the partial-writev resume: the head frame carries an offset of
// bytes already transferred, and a partial transfer may end mid-frame.
class OutQueue {
 public:
  /// Cleared buffer to encode the next frame into; follow with push().
  std::vector<std::byte>& next_slot() {
    if (count_ == ring_.size()) grow();
    auto& buf = ring_[(head_ + count_) % ring_.size()];
    buf.clear();
    return buf;
  }
  /// Queues the buffer next_slot() returned (now holding one whole frame).
  void push() {
    bytes_ += ring_[(head_ + count_) % ring_.size()].size();
    ++count_;
  }

  [[nodiscard]] std::size_t pending() const noexcept { return bytes_; }

  /// At most `max` iovecs over the unsent bytes, head frame from its resume
  /// offset.  Returns the iovec count.
  int fill_iov(iovec* iov, int max) const {
    int n = 0;
    for (std::size_t i = 0; i < count_ && n < max; ++i) {
      const auto& buf = ring_[(head_ + i) % ring_.size()];
      const std::size_t off = i == 0 ? head_off_ : 0;
      iov[n].iov_base = const_cast<std::byte*>(buf.data()) + off;
      iov[n].iov_len = buf.size() - off;
      ++n;
    }
    return n;
  }

  /// Advances past `n` transferred bytes, retiring fully-sent frames (their
  /// buffers stay in the ring, capacity intact) and recording the resume
  /// offset when the transfer ended mid-frame.
  void consume(std::size_t n) {
    bytes_ -= n;
    while (n > 0) {
      const std::size_t left = ring_[head_].size() - head_off_;
      if (n < left) {
        head_off_ += n;
        return;
      }
      n -= left;
      head_off_ = 0;
      head_ = (head_ + 1) % ring_.size();
      --count_;
    }
  }

 private:
  void grow() {
    std::vector<std::vector<std::byte>> bigger;
    bigger.reserve(ring_.empty() ? 8 : ring_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger.push_back(std::move(ring_[(head_ + i) % ring_.size()]));
    }
    bigger.resize(bigger.capacity());
    ring_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<std::vector<std::byte>> ring_;
  std::size_t head_ = 0;      // ring index of the first unsent frame
  std::size_t count_ = 0;     // queued frames
  std::size_t head_off_ = 0;  // bytes of ring_[head_] already on the wire
  std::size_t bytes_ = 0;     // total unsent bytes
};

constexpr int kFlushIov = 64;

// epoll_wait batch per loop: events drained per syscall.
constexpr int kEpollEvents = 256;

}  // namespace

struct Server::Conn {
  Fd fd;
  FrameDecoder decoder;
  // Edge-triggered readiness: an epoll edge sets these, the drain loops
  // clear them on EAGAIN.  A set flag means "the kernel may have more for
  // us and no further event is coming" — whoever stops a drain early
  // (backpressure) must re-run it once unblocked.
  bool can_read = false;
  bool can_write = false;      // first EPOLLOUT edge arrives right after ADD
  bool closing = false;        // stop reading; close once output drains
  bool dead = false;           // hard I/O error or fully-drained EOF

  OutQueue out;

  // Grown-only batching scratch: element strings keep their capacity across
  // requests, so steady-state decode/encode allocates nothing.
  Run run = Run::kNone;
  std::vector<RunEntry> entries;
  std::vector<serve::Observation> obs;
  std::size_t obs_used = 0;
  std::vector<tsdb::SeriesKey> keys;
  std::size_t keys_used = 0;
  std::vector<serve::Prediction> preds;
  persist::io::Writer reply;

  explicit Conn(Fd socket) : fd(std::move(socket)) {}

  [[nodiscard]] std::size_t pending() const noexcept { return out.pending(); }
};

struct Server::Loop {
  Fd epoll;
  Fd wake;      // stop()'s wake-up
  Fd listener;  // this loop's SO_REUSEPORT listener
  std::thread thread;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;

  // Loop-local traffic counters.  Only this loop's thread writes them
  // (relaxed), so the hot path never bounces a shared cache line between
  // loops; stats()/loop_stats() fold them from other threads.
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> frames_out{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> observe_batches{0};
  std::atomic<std::uint64_t> predict_batches{0};
  std::atomic<std::uint64_t> wakeups{0};
  std::atomic<std::uint64_t> busy_nanos{0};
};

namespace {

void epoll_ctl_or_throw(int epfd, int op, int fd, std::uint32_t events,
                        void* tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = tag;
  if (::epoll_ctl(epfd, op, fd, &ev) != 0) {
    throw NetError(std::string("net: epoll_ctl: ") + std::strerror(errno));
  }
}

void wake_loop(const Fd& wake) {
  const std::uint64_t one = 1;
  ssize_t rc;
  do {
    rc = ::write(wake.get(), &one, sizeof(one));
  } while (rc < 0 && errno == EINTR);
  // EAGAIN means the counter is already non-zero — the loop will wake.
}

std::uint64_t nanos_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

}  // namespace

Server::Server(serve::PredictionEngine& engine, ServerConfig config)
    : engine_(engine), config_(std::move(config)) {
  if (config_.event_threads == 0) config_.event_threads = 1;
}

Server::~Server() { stop(); }

void Server::start() {
  if (!loops_.empty()) throw StateError("net: server already started");

  Fd first = listen_tcp(config_.host, config_.port, 128, /*reuse_port=*/true);
  // Ephemeral-port case: the remaining listeners must bind the port the
  // kernel actually picked for the first one.
  const std::uint16_t bound = local_port(first);

  loops_.reserve(config_.event_threads);
  for (std::size_t i = 0; i < config_.event_threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll = Fd(::epoll_create1(EPOLL_CLOEXEC));
    if (!loop->epoll.valid()) {
      throw NetError(std::string("net: epoll_create1: ") +
                     std::strerror(errno));
    }
    loop->wake = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    if (!loop->wake.valid()) {
      throw NetError(std::string("net: eventfd: ") + std::strerror(errno));
    }
    // The wake fd stays level-triggered on purpose: a wake posted between
    // epoll_wait and the drain must not be lost.
    epoll_ctl_or_throw(loop->epoll.get(), EPOLL_CTL_ADD, loop->wake.get(),
                       EPOLLIN, &loop->wake);
    loop->listener = i == 0 ? std::move(first)
                            : listen_tcp(config_.host, bound, 128,
                                         /*reuse_port=*/true);
    // Edge-triggered: accept_ready() drains until EAGAIN, so one wakeup
    // covers a whole burst of connections.
    epoll_ctl_or_throw(loop->epoll.get(), EPOLL_CTL_ADD, loop->listener.get(),
                       EPOLLIN | EPOLLET, &loop->listener);
    loops_.push_back(std::move(loop));
  }
  running_.store(true, std::memory_order_release);
  for (auto& loop_ptr : loops_) {
    Loop& loop = *loop_ptr;
    loop.thread = std::thread([this, &loop] { run_loop(loop); });
  }
}

void Server::stop() {
  if (loops_.empty()) return;
  running_.store(false, std::memory_order_release);
  for (auto& loop : loops_) wake_loop(loop->wake);
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  for (auto& loop : loops_) {
    loop->closed.fetch_add(loop->conns.size(), std::memory_order_relaxed);
    loop->conns.clear();
  }
  final_stats_ = stats();
  final_loop_stats_ = loop_stats();
  loops_.clear();
}

std::uint16_t Server::port() const {
  if (loops_.empty()) {
    throw StateError("net: server not started");
  }
  return local_port(loops_[0]->listener);
}

ServerStats Server::stats() const {
  if (loops_.empty()) return final_stats_;
  ServerStats s;
  for (const auto& loop : loops_) {
    s.connections_accepted += loop->accepted.load(std::memory_order_relaxed);
    s.connections_closed += loop->closed.load(std::memory_order_relaxed);
    s.frames_in += loop->frames_in.load(std::memory_order_relaxed);
    s.frames_out += loop->frames_out.load(std::memory_order_relaxed);
    s.protocol_errors +=
        loop->protocol_errors.load(std::memory_order_relaxed);
    s.observe_batches += loop->observe_batches.load(std::memory_order_relaxed);
    s.predict_batches += loop->predict_batches.load(std::memory_order_relaxed);
  }
  return s;
}

std::vector<LoopStats> Server::loop_stats() const {
  if (loops_.empty()) return final_loop_stats_;
  std::vector<LoopStats> out;
  out.reserve(loops_.size());
  for (const auto& loop : loops_) {
    LoopStats s;
    s.connections = loop->accepted.load(std::memory_order_relaxed);
    s.frames_in = loop->frames_in.load(std::memory_order_relaxed);
    s.frames_out = loop->frames_out.load(std::memory_order_relaxed);
    s.wakeups = loop->wakeups.load(std::memory_order_relaxed);
    s.busy_seconds =
        static_cast<double>(loop->busy_nanos.load(std::memory_order_relaxed)) *
        1e-9;
    out.push_back(s);
  }
  return out;
}

void Server::run_loop(Loop& loop) {
  std::vector<epoll_event> events(kEpollEvents);
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(loop.epoll.get(), events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // an unusable epoll fd cannot be recovered; exit the loop
    }
    const auto woke_at = Clock::now();
    loop.wakeups.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == &loop.wake) {
        std::uint64_t drain = 0;
        while (::read(loop.wake.get(), &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (tag == &loop.listener) {
        try {
          accept_ready(loop);
        } catch (const NetError&) {
          // A transient accept failure (EMFILE, ENFILE) drops this wave of
          // connections; the listener stays registered.
        }
        continue;
      }
      auto* conn = static_cast<Conn*>(tag);
      const std::uint32_t ev = events[i].events;
      // EPOLLRDHUP rides with the read edge: the half-close is only
      // observable as read() == 0, which the drain reaches promptly in
      // this same wakeup instead of on some later one.
      if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0) conn->can_read = true;
      if ((ev & EPOLLOUT) != 0) conn->can_write = true;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) conn->dead = true;
      try {
        service_conn(loop, *conn);
      } catch (const std::exception&) {
        conn->dead = true;  // never let an exception kill the event thread
      }
      if (conn->dead || (conn->closing && conn->pending() == 0)) {
        close_conn(loop, *conn);
      }
    }
    loop.busy_nanos.fetch_add(nanos_since(woke_at), std::memory_order_relaxed);
    if (!running_.load(std::memory_order_acquire)) break;
  }
}

void Server::accept_ready(Loop& loop) {
  for (;;) {
    Fd socket = accept_conn(loop.listener);
    if (!socket.valid()) return;
    try {
      set_nodelay(socket.get());
    } catch (const NetError&) {
      continue;  // peer vanished between accept and setsockopt
    }
    loop.accepted.fetch_add(1, std::memory_order_relaxed);
    add_conn(loop, std::move(socket));
  }
}

void Server::add_conn(Loop& loop, Fd fd) {
  const int raw = fd.get();
  auto conn = std::make_unique<Conn>(std::move(fd));
  // One registration for the connection's whole life: both directions,
  // edge-triggered.  EPOLL_CTL_ADD reports the current readiness as the
  // first edge, so a socket that arrived with data (or, always, with write
  // space) gets its flags set by the first wakeup — no initial-state race.
  try {
    epoll_ctl_or_throw(loop.epoll.get(), EPOLL_CTL_ADD, raw,
                       EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, conn.get());
  } catch (const NetError&) {
    loop.closed.fetch_add(1, std::memory_order_relaxed);
    return;  // conn's Fd destructor closes the socket
  }
  loop.conns.emplace(raw, std::move(conn));
}

void Server::close_conn(Loop& loop, Conn& conn) {
  ::epoll_ctl(loop.epoll.get(), EPOLL_CTL_DEL, conn.fd.get(), nullptr);
  loop.closed.fetch_add(1, std::memory_order_relaxed);
  loop.conns.erase(conn.fd.get());  // destroys conn; do not touch it after
}

void Server::service_conn(Loop& loop, Conn& conn) {
  // Alternate flush and read until neither can progress.  Every iteration
  // either hits EAGAIN on a direction (clearing its flag) or empties /
  // fills a buffer, so the loop terminates; kernel socket buffers bound
  // how long one connection can monopolize the loop thread.
  for (;;) {
    if (conn.dead) return;
    if (conn.can_write && conn.pending() > 0) try_flush(conn);
    if (conn.dead || conn.closing) return;
    const bool read_open = conn.can_read &&
                           conn.pending() < config_.write_backpressure_bytes;
    if (read_open) read_drain(loop, conn);
    // Progress still possible?  (a) produced replies and the socket is
    // writable; (b) flushing dropped us back under the backpressure cap
    // while a read edge is still pending.
    const bool want_flush = conn.can_write && conn.pending() > 0;
    const bool want_read = conn.can_read && !conn.closing && !conn.dead &&
                           conn.pending() < config_.write_backpressure_bytes;
    if (!want_flush && !want_read) return;
  }
}

void Server::read_drain(Loop& loop, Conn& conn) {
  std::byte buf[64 * 1024];
  while (conn.can_read && !conn.closing && !conn.dead) {
    // Backpressure: a slow consumer stops being read until the kernel
    // accepts its reply backlog.  can_read stays set — under ET no new
    // edge will come for data already buffered, so service_conn resumes
    // this drain itself once the flush frees space.
    if (conn.pending() >= config_.write_backpressure_bytes) return;
    const ssize_t r = ::read(conn.fd.get(), buf, sizeof(buf));
    if (r > 0) {
      conn.decoder.feed(
          std::span<const std::byte>(buf, static_cast<std::size_t>(r)));
      process_frames(loop, conn);
      continue;  // ET contract: drain until EAGAIN, not until a short read
    }
    if (r == 0) {
      // EOF / peer half-close (EPOLLRDHUP lands here): no more requests,
      // but replies already earned still drain before teardown.
      conn.can_read = false;
      conn.closing = true;
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      conn.can_read = false;
      return;
    }
    conn.dead = true;
    return;
  }
}

void Server::enqueue_reply(Loop& loop, Conn& conn) {
  append_frame(conn.out.next_slot(), conn.reply.bytes());
  conn.out.push();
  loop.frames_out.fetch_add(1, std::memory_order_relaxed);
}

void Server::process_frames(Loop& loop, Conn& conn) {
  while (!conn.closing) {
    std::span<const std::byte> body;
    const FrameDecoder::Status status = conn.decoder.next(body);
    if (status == FrameDecoder::Status::kNeedMore) break;
    if (status == FrameDecoder::Status::kCorrupt) {
      flush_runs(loop, conn);  // frames before the corruption were valid
      protocol_error(loop, conn, 0, ErrorCode::kBadFrame,
                     "unrecoverable frame: bad length or checksum");
      break;
    }
    loop.frames_in.fetch_add(1, std::memory_order_relaxed);
    persist::io::Reader r(body);
    const FrameHeader h = decode_header(r);
    try {
      switch (h.type) {
        case MsgType::kObserve: {
          if (conn.run != Run::kObserve) flush_runs(loop, conn);
          const std::size_t before = conn.obs_used;
          conn.obs_used = decode_observe_items(r, conn.obs, conn.obs_used);
          const auto items = std::span<const serve::Observation>(
              conn.obs.data() + before, conn.obs_used - before);
          if (std::any_of(items.begin(), items.end(), [](const auto& o) {
                return !std::isfinite(o.value);
              })) {
            // The engine would refuse the whole run for it.  Only this
            // request is the client's fault: the run before it still
            // applies, and the connection keeps serving.
            conn.obs_used = before;
            flush_runs(loop, conn);
            encode_error(conn.reply, h.id, ErrorCode::kBadRequest,
                         "observe: non-finite value");
            enqueue_reply(loop, conn);
            break;
          }
          conn.run = Run::kObserve;
          conn.entries.push_back({h.id, conn.obs_used - before});
          break;
        }
        case MsgType::kPredict: {
          if (conn.run != Run::kPredict) flush_runs(loop, conn);
          const std::size_t before = conn.keys_used;
          conn.keys_used = decode_predict_keys(r, conn.keys, conn.keys_used);
          conn.run = Run::kPredict;
          conn.entries.push_back({h.id, conn.keys_used - before});
          break;
        }
        case MsgType::kPing:
          flush_runs(loop, conn);
          encode_pong(conn.reply, h.id);
          enqueue_reply(loop, conn);
          break;
        case MsgType::kStats:
          flush_runs(loop, conn);
          encode_stats_reply(conn.reply, h.id, engine_.stats());
          enqueue_reply(loop, conn);
          break;
        default:
          flush_runs(loop, conn);
          protocol_error(loop, conn, h.id, ErrorCode::kBadRequest,
                         "unknown message type");
          break;
      }
    } catch (const persist::CorruptData& e) {
      // A partially-decoded item may sit beyond the used watermark in the
      // scratch vectors; it is simply overwritten by the next request.
      flush_runs(loop, conn);
      protocol_error(loop, conn, h.id, ErrorCode::kBadRequest, e.what());
    }
  }
  if (!conn.closing) flush_runs(loop, conn);
}

void Server::flush_runs(Loop& loop, Conn& conn) {
  if (conn.entries.empty()) {
    conn.run = Run::kNone;
    conn.obs_used = 0;
    conn.keys_used = 0;
    return;
  }
  if (conn.run == Run::kObserve) {
    try {
      engine_.observe(std::span<const serve::Observation>(conn.obs.data(),
                                                          conn.obs_used));
      loop.observe_batches.fetch_add(1, std::memory_order_relaxed);
      for (const RunEntry& entry : conn.entries) {
        encode_observe_ack(conn.reply, entry.id, entry.count);
        enqueue_reply(loop, conn);
      }
    } catch (const Error& e) {
      for (const RunEntry& entry : conn.entries) {
        encode_error(conn.reply, entry.id, ErrorCode::kInternal, e.what());
        enqueue_reply(loop, conn);
      }
    }
  } else if (conn.run == Run::kPredict) {
    try {
      engine_.predict_into(
          std::span<const tsdb::SeriesKey>(conn.keys.data(), conn.keys_used),
          conn.preds);
      loop.predict_batches.fetch_add(1, std::memory_order_relaxed);
      std::size_t offset = 0;
      for (const RunEntry& entry : conn.entries) {
        encode_predict_reply(
            conn.reply, entry.id,
            std::span<const serve::Prediction>(conn.preds.data() + offset,
                                               entry.count));
        offset += entry.count;
        enqueue_reply(loop, conn);
      }
    } catch (const serve::StaleRead& e) {
      // A lagging follower refuses the read but keeps the connection: the
      // client fails this request over to the leader and may retry here
      // once the follower catches up.
      for (const RunEntry& entry : conn.entries) {
        encode_error(conn.reply, entry.id, ErrorCode::kStale, e.what());
        enqueue_reply(loop, conn);
      }
    } catch (const Error& e) {
      for (const RunEntry& entry : conn.entries) {
        encode_error(conn.reply, entry.id, ErrorCode::kInternal, e.what());
        enqueue_reply(loop, conn);
      }
    }
  }
  conn.entries.clear();
  conn.run = Run::kNone;
  conn.obs_used = 0;
  conn.keys_used = 0;
}

void Server::protocol_error(Loop& loop, Conn& conn, std::uint64_t id,
                            ErrorCode code, std::string_view message) {
  loop.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  encode_error(conn.reply, id, code, message);
  enqueue_reply(loop, conn);
  conn.closing = true;  // stop reading; close once the error reply drains
}

void Server::try_flush(Conn& conn) {
  while (conn.can_write && conn.out.pending() > 0) {
    iovec iov[kFlushIov];
    const int n = conn.out.fill_iov(iov, kFlushIov);
    const ssize_t w = send_iov(conn.fd.get(), iov, n);
    if (w > 0) {
      conn.out.consume(static_cast<std::size_t>(w));
      continue;
    }
    if (w == 0) {  // EAGAIN: wait for the next EPOLLOUT edge
      conn.can_write = false;
      return;
    }
    conn.dead = true;
    return;
  }
}

}  // namespace larp::net
