// net::Server — the epoll front-end that puts a PredictionEngine on a TCP
// port.
//
// Threading model: N event-loop threads, each with its own epoll instance.
// Every loop owns its OWN listening socket bound with SO_REUSEPORT, accepts
// directly, and keeps the connection for its whole life — no cross-thread
// handoff, no wake round-trip, and the kernel load-balances new connections
// across the loops.  A connection lives on exactly one loop, so all its
// state is single-threaded by construction.  Each loop's eventfd exists only
// so stop() can wake it.
//
// Edge-triggered epoll: connections are registered once with
// EPOLLIN|EPOLLOUT|EPOLLRDHUP|EPOLLET and never re-armed via epoll_ctl.
// Readiness is tracked in per-connection flags (`can_read`/`can_write`)
// that an edge sets and a drain-until-EAGAIN loop clears — a hot connection
// costs one epoll_wait wakeup per burst instead of one per frame.  The
// invariant that makes ET safe: whenever a flag is left set without the
// corresponding drain having hit EAGAIN (read paused by backpressure), the
// server itself resumes that drain as soon as the blocking condition
// clears, because no further edge is coming.
//
// Batching: frames are processed strictly in arrival order, but consecutive
// frames of the same type drained from one socket read are coalesced into a
// single engine call — a client pipelining M observe frames costs one
// engine.observe() spanning all of them.  Replies are emitted per frame, in
// request order, each encoded into its own queued buffer; the flush
// gathers the queued frames into iovecs and hands them to the kernel with
// one writev-style sendmsg per syscall, resuming mid-frame after a partial
// transfer.
//
// Errors: a payload that fails validation gets a kBadRequest error reply; a
// framing/CRC failure gets kBadFrame.  Either way the server stops reading
// from that connection and closes it once the error reply has drained — a
// peer whose stream is corrupt cannot be re-synchronized.  An observe
// request holding a NaN or infinite value, which the engine refuses, also
// gets kBadRequest, but the connection stays open: the run coalesced before
// it is applied first, and nothing of the refused request is.
//
// Backpressure: when a connection's pending output exceeds
// write_backpressure_bytes the server stops reading from it until the
// kernel accepts the backlog, bounding memory per slow consumer.  A peer
// that half-closes (EPOLLRDHUP) stops being read immediately; its already
// earned replies still drain before the connection is torn down.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "serve/prediction_engine.hpp"

namespace larp::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one back with port().
  std::uint16_t port = 0;
  /// Event-loop threads, each with its own SO_REUSEPORT listener.  0 means
  /// one.
  std::size_t event_threads = 1;
  /// Pending-output cap per connection before reads pause.
  std::size_t write_backpressure_bytes = 1u << 20;
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t protocol_errors = 0;
  /// Engine calls issued (after coalescing) — frames_in / batches is the
  /// realized batching factor.
  std::uint64_t observe_batches = 0;
  std::uint64_t predict_batches = 0;
};

/// Per-event-loop counters (stats() aggregates them; loop_stats() exposes
/// the per-loop split so a scaling bench can see accept/load imbalance).
struct LoopStats {
  std::uint64_t connections = 0;  // connections this loop ever owned
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t wakeups = 0;      // epoll_wait returns with >= 1 event
  double busy_seconds = 0.0;      // wall time spent servicing events
};

class Server {
 public:
  /// The engine must outlive the server.
  Server(serve::PredictionEngine& engine, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, spawns the event-loop threads, returns once accepting.
  void start();
  /// Stops accepting, closes every connection, joins the threads.
  /// Idempotent; the destructor calls it.
  void stop();

  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] ServerStats stats() const;
  /// One entry per event loop, index-aligned with the spawn order.
  [[nodiscard]] std::vector<LoopStats> loop_stats() const;

 private:
  struct Conn;
  struct Loop;

  void run_loop(Loop& loop);
  void accept_ready(Loop& loop);
  void add_conn(Loop& loop, Fd fd);
  void close_conn(Loop& loop, Conn& conn);
  /// Drives a connection until neither direction can make progress:
  /// flush while writable, read while readable and under the backpressure
  /// cap, repeat — the ET re-arm loop described in the header comment.
  void service_conn(Loop& loop, Conn& conn);
  void read_drain(Loop& loop, Conn& conn);
  void process_frames(Loop& loop, Conn& conn);
  void flush_runs(Loop& loop, Conn& conn);
  void protocol_error(Loop& loop, Conn& conn, std::uint64_t id, ErrorCode code,
                      std::string_view message);
  void try_flush(Conn& conn);
  void enqueue_reply(Loop& loop, Conn& conn);

  serve::PredictionEngine& engine_;
  ServerConfig config_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<bool> running_{false};
  // Folded at stop() so counters stay readable after the loops are gone.
  ServerStats final_stats_;
  std::vector<LoopStats> final_loop_stats_;
};

}  // namespace larp::net
