// Multi-loop scaling and edge-triggered backpressure tests: four loops, each
// accepting on its own SO_REUSEPORT listener, must serve bit-identical
// results to a single loop, and the EPOLLET + writev reply path must
// survive slow readers, injected partial writes, torn frames, and
// half-closed peers without dropping or reordering a single reply.  Runs
// under the TSan CI label with the rest of larp_tests_net.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "persist/io.hpp"
#include "predictors/pool.hpp"
#include "serve/prediction_engine.hpp"

namespace larp::net {
namespace {

serve::EngineConfig tiny_config() {
  serve::EngineConfig config;
  config.lar.window = 5;
  config.shards = 4;
  config.threads = 1;
  config.train_samples = 12;
  config.audit_every = 0;
  return config;
}

/// Scoped send_iov transfer clamp; always restored, even when an assertion
/// fails mid-test.
class TransferClamp {
 public:
  explicit TransferClamp(std::size_t bytes) {
    testing::set_max_transfer_bytes(bytes);
  }
  ~TransferClamp() { testing::set_max_transfer_bytes(0); }
  TransferClamp(const TransferClamp&) = delete;
  TransferClamp& operator=(const TransferClamp&) = delete;
};

/// Drives a fixed deterministic workload (4 connections x 4 series x 16
/// steps, then one predict per series) against a fresh engine + server with
/// `threads` event loops and returns every prediction as raw bits.  Two
/// configurations serving the same workload must return identical vectors.
std::vector<std::uint64_t> run_workload(std::size_t threads) {
  serve::PredictionEngine engine(predictors::make_paper_pool(5), tiny_config());
  ServerConfig config;
  config.event_threads = threads;
  Server server(engine, config);
  server.start();

  std::vector<std::uint64_t> bits;
  const std::size_t kConns = 4;
  const std::size_t kSeries = 4;
  const std::size_t kSteps = 16;
  for (std::size_t c = 0; c < kConns; ++c) {
    Client client("127.0.0.1", server.port());
    std::vector<tsdb::SeriesKey> keys(kSeries);
    for (std::size_t s = 0; s < kSeries; ++s) {
      keys[s] = {"conn" + std::to_string(c), "dev0", "m" + std::to_string(s)};
    }
    std::vector<serve::Observation> batch(kSeries);
    for (std::size_t step = 0; step < kSteps; ++step) {
      for (std::size_t s = 0; s < kSeries; ++s) {
        batch[s].key = keys[s];
        batch[s].value = 10.0 + static_cast<double>((3 * c + 5 * s + step) % 7);
      }
      EXPECT_EQ(client.observe(batch), kSeries);
    }
    std::vector<serve::Prediction> predictions;
    client.predict(keys, predictions);
    EXPECT_EQ(predictions.size(), kSeries);
    for (const auto& p : predictions) {
      bits.push_back(p.ready ? 1 : 0);
      bits.push_back(std::bit_cast<std::uint64_t>(p.value));
      bits.push_back(p.label);
      bits.push_back(std::bit_cast<std::uint64_t>(p.uncertainty));
    }
  }
  server.stop();
  return bits;
}

TEST(ReusePortTest, MultiLoopMatchesSingleLoopBitIdentical) {
  const auto baseline = run_workload(1);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(run_workload(4), baseline);
}

TEST(ReusePortTest, InjectedPartialWritesStayBitIdentical) {
  // Same parity claim with every server send clamped to 9 bytes, so every
  // reply frame crosses several partial-writev resumes before reaching the
  // client whole.
  const auto baseline = run_workload(1);
  ASSERT_FALSE(baseline.empty());

  TransferClamp clamp(9);
  EXPECT_EQ(run_workload(4), baseline);
}

class BackpressureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<serve::PredictionEngine>(
        predictors::make_paper_pool(5), tiny_config());
    ServerConfig config;
    config.event_threads = 1;
    // A cap far below one predict reply, so the server parks the connection
    // after every reply and must resume the paused read itself — the ET
    // invariant the header comment promises.
    config.write_backpressure_bytes = 256;
    server_ = std::make_unique<Server>(*engine_, config);
    server_->start();
  }

  void TearDown() override { server_->stop(); }

  std::unique_ptr<serve::PredictionEngine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(BackpressureTest, SlowReaderLosesNothingUnderPartialWrites) {
  // 16 pipelined predict requests x 32 keys: each reply (~800 bytes) alone
  // exceeds the 256-byte backpressure cap, and the 33-byte transfer clamp
  // forces every flush to end mid-frame.  The slow reader then collects:
  // every reply must arrive, in request order, bit-exact enough to decode.
  TransferClamp clamp(33);
  Client client("127.0.0.1", server_->port());
  const std::size_t kKeys = 32;
  const std::uint64_t kRequests = 16;
  std::vector<tsdb::SeriesKey> keys(kKeys);
  for (std::size_t s = 0; s < kKeys; ++s) {
    keys[s] = {"bp", "dev0", "m" + std::to_string(s)};
  }
  persist::io::Writer body;
  std::vector<std::byte> burst;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    encode_predict_request(body, id, keys);
    append_frame(burst, body.bytes());
  }
  client.send_raw(burst);

  // Stay slow: let the server hit the cap and park before we read a byte.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::vector<std::byte> reply;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    const FrameHeader h = client.read_reply(reply);
    EXPECT_EQ(h.type, MsgType::kPredictReply);
    EXPECT_EQ(h.id, id);
    persist::io::Reader r(reply);
    (void)decode_header(r);
    std::vector<serve::Prediction> predictions;
    decode_predict_reply(r, predictions);
    EXPECT_EQ(predictions.size(), kKeys);
  }
  EXPECT_GE(server_->stats().frames_out, kRequests);

  // No busy-spin: with everything drained and the connection idle, the
  // (edge-triggered) loop must block in epoll_wait, not whirl on a
  // level-triggered EPOLLOUT.  A spinning loop racks up thousands of
  // wakeups in 150 ms.
  const std::uint64_t before = server_->loop_stats()[0].wakeups;
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::uint64_t after = server_->loop_stats()[0].wakeups;
  EXPECT_LE(after - before, 10u);
}

TEST_F(BackpressureTest, CorruptFrameUnderClampStillErrorsAndCloses) {
  // The error-then-close path also rides the clamped writev: the kBadFrame
  // reply crosses partial writes, must still arrive whole, and the close
  // must wait for it.
  TransferClamp clamp(7);
  Client client("127.0.0.1", server_->port());
  client.ping();  // valid traffic first, over the clamped path
  std::vector<std::byte> garbage(48);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::byte>(0xA5 ^ i);
  }
  client.send_raw(garbage);
  std::vector<std::byte> reply;
  const FrameHeader h = client.read_reply(reply);
  EXPECT_EQ(h.type, MsgType::kError);
  persist::io::Reader r(reply);
  (void)decode_header(r);
  EXPECT_EQ(decode_error(r).code, ErrorCode::kBadFrame);
  EXPECT_TRUE(client.eof());
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(BackpressureTest, HalfClosedPeerGetsEarnedRepliesThenTeardown) {
  // shutdown(SHUT_WR) raises EPOLLRDHUP at the server.  The contract: stop
  // reading promptly, but deliver every reply already earned, then close.
  const Fd fd = connect_tcp("127.0.0.1", server_->port());
  persist::io::Writer body;
  std::vector<std::byte> burst;
  const std::uint64_t kPings = 3;
  for (std::uint64_t id = 1; id <= kPings; ++id) {
    encode_ping(body, id);
    append_frame(burst, body.bytes());
  }
  std::size_t sent = 0;
  while (sent < burst.size()) {
    const ssize_t w = ::send(fd.get(), burst.data() + sent,
                             burst.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << "send failed: " << std::strerror(errno);
    sent += static_cast<std::size_t>(w);
  }
  ASSERT_EQ(::shutdown(fd.get(), SHUT_WR), 0);

  FrameDecoder decoder;
  std::uint64_t next_pong = 1;
  bool eof = false;
  std::byte buf[4096];
  while (!eof || next_pong <= kPings) {
    std::span<const std::byte> frame;
    const FrameDecoder::Status status = decoder.next(frame);
    ASSERT_NE(status, FrameDecoder::Status::kCorrupt);
    if (status == FrameDecoder::Status::kFrame) {
      persist::io::Reader r(frame);
      const FrameHeader h = decode_header(r);
      EXPECT_EQ(h.type, MsgType::kPong);
      EXPECT_EQ(h.id, next_pong);
      ++next_pong;
      continue;
    }
    ASSERT_FALSE(eof) << "connection closed before every reply arrived";
    const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
    if (n == 0) {
      eof = true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << "read failed: " << std::strerror(errno);
    decoder.feed(std::span<const std::byte>(buf, static_cast<std::size_t>(n)));
  }
  EXPECT_EQ(next_pong, kPings + 1);

  // The half-closed connection is torn down once its replies drained, not
  // held until process exit.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (server_->stats().connections_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server_->stats().connections_closed, 1u);
}

}  // namespace
}  // namespace larp::net
