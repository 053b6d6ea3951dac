// End-to-end loopback tests: a real epoll Server on an ephemeral port, real
// sockets, real frames.  These run under the sanitizer CI jobs (the target
// label puts them in the TSan set), so the per-loop accept and ownership
// and the shutdown join are all exercised under race detection.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <limits>
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

tsdb::SeriesKey key_of(std::size_t s) {
  return {"vm" + std::to_string(s), "dev0", "cpu"};
}

class LoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<serve::PredictionEngine>(
        predictors::make_paper_pool(5), tiny_config());
    ServerConfig config;
    config.event_threads = 2;
    server_ = std::make_unique<Server>(*engine_, config);
    server_->start();
  }

  void TearDown() override {
    server_->stop();
  }

  [[nodiscard]] Client connect() { return {"127.0.0.1", server_->port()}; }

  std::unique_ptr<serve::PredictionEngine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(LoopbackTest, PingPong) {
  Client client = connect();
  client.ping();
  client.ping();
  const ServerStats stats = server_->stats();
  EXPECT_GE(stats.frames_in, 2u);
  EXPECT_GE(stats.frames_out, 2u);
}

TEST_F(LoopbackTest, ObserveUntilTrainedThenPredict) {
  Client client = connect();
  const std::size_t kSeries = 8;
  std::vector<serve::Observation> batch(kSeries);
  std::vector<tsdb::SeriesKey> keys(kSeries);
  for (std::size_t s = 0; s < kSeries; ++s) keys[s] = key_of(s);

  std::vector<serve::Prediction> predictions;
  for (std::size_t step = 0; step < 16; ++step) {
    for (std::size_t s = 0; s < kSeries; ++s) {
      batch[s].key = keys[s];
      batch[s].value =
          50.0 + 3.0 * std::sin(0.3 * static_cast<double>(step + s));
    }
    EXPECT_EQ(client.observe(batch), kSeries);
  }
  client.predict(keys, predictions);
  ASSERT_EQ(predictions.size(), kSeries);
  for (const auto& p : predictions) {
    EXPECT_TRUE(p.ready);
    EXPECT_TRUE(std::isfinite(p.value));
  }

  const WireStats wire = client.stats();
  EXPECT_EQ(wire.series, kSeries);
  EXPECT_EQ(wire.trained_series, kSeries);
  EXPECT_EQ(wire.observations, 16u * kSeries);
}

TEST_F(LoopbackTest, NetworkMatchesDirectEngineCalls) {
  // The wire adds framing, not semantics: predictions served over loopback
  // must be bit-identical to a directly-driven engine fed the same stream.
  serve::PredictionEngine direct(predictors::make_paper_pool(5),
                                 tiny_config());
  Client client = connect();
  const tsdb::SeriesKey key{"vm-parity", "dev0", "cpu"};
  std::vector<serve::Observation> one(1);
  std::vector<serve::Prediction> via_net;
  const std::vector<tsdb::SeriesKey> keys = {key};
  for (std::size_t step = 0; step < 20; ++step) {
    const double value = 10.0 + 0.5 * static_cast<double>(step % 7);
    one[0] = {key, value};
    ASSERT_EQ(client.observe(one), 1u);
    direct.observe(key, value);
  }
  client.predict(keys, via_net);
  const serve::Prediction direct_p = direct.predict(key);
  ASSERT_EQ(via_net.size(), 1u);
  EXPECT_EQ(via_net[0].ready, direct_p.ready);
  EXPECT_EQ(via_net[0].label, direct_p.label);
  // Bit-pattern equality, so an untrained NaN uncertainty also matches.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(via_net[0].value),
            std::bit_cast<std::uint64_t>(direct_p.value));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(via_net[0].uncertainty),
            std::bit_cast<std::uint64_t>(direct_p.uncertainty));
}

TEST_F(LoopbackTest, PipelinedFramesReplyInOrder) {
  // Fire a burst of requests without reading any reply, then collect:
  // replies must come back one per request, in request order, with the
  // coalesced run acking each frame separately.
  Client client = connect();
  persist::io::Writer body;
  std::vector<std::byte> burst;
  std::vector<serve::Observation> one = {{key_of(0), 1.0}};
  for (std::uint64_t id = 1; id <= 6; ++id) {
    encode_observe_request(body, id, one);
    append_frame(burst, body.bytes());
  }
  encode_ping(body, 7);
  append_frame(burst, body.bytes());
  client.send_raw(burst);

  std::vector<std::byte> reply;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    const FrameHeader h = client.read_reply(reply);
    EXPECT_EQ(h.type, MsgType::kObserveAck);
    EXPECT_EQ(h.id, id);
  }
  const FrameHeader pong = client.read_reply(reply);
  EXPECT_EQ(pong.type, MsgType::kPong);
  EXPECT_EQ(pong.id, 7u);
  // The six pipelined observes coalesced into fewer engine batches than
  // frames (exactly one when the whole burst arrived in one read).
  EXPECT_LT(server_->stats().observe_batches, 6u);
}

TEST_F(LoopbackTest, GarbageGetsErrorReplyThenClose) {
  Client client = connect();
  std::vector<std::byte> garbage(32);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::byte>(0xC0 + i);
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

TEST_F(LoopbackTest, ValidFrameBadPayloadGetsBadRequest) {
  Client client = connect();
  persist::io::Writer body;
  body.u8(0x01);       // kObserve
  body.u64(99);        // id
  body.u64(1u << 20);  // count prefix with no items behind it
  std::vector<std::byte> frame;
  append_frame(frame, body.bytes());
  client.send_raw(frame);
  std::vector<std::byte> reply;
  const FrameHeader h = client.read_reply(reply);
  EXPECT_EQ(h.type, MsgType::kError);
  EXPECT_EQ(h.id, 99u);
  persist::io::Reader r(reply);
  (void)decode_header(r);
  EXPECT_EQ(decode_error(r).code, ErrorCode::kBadRequest);
  EXPECT_TRUE(client.eof());
}

// A NaN is the client's bad request, not a server fault: nothing of the
// request applies, and the connection keeps serving.  A good request
// pipelined before it still applies.
TEST_F(LoopbackTest, NonFiniteObservationGetsBadRequest) {
  Client client = connect();
  const std::vector<serve::Observation> bad = {
      {key_of(0), 1.0}, {key_of(1), std::numeric_limits<double>::quiet_NaN()}};
  try {
    (void)client.observe(bad);
    FAIL() << "an observe batch holding a NaN was acknowledged";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
  EXPECT_EQ(engine_->stats().observations, 0u);
  const std::vector<serve::Observation> good = {{key_of(0), 1.0}};
  EXPECT_EQ(client.observe(good), 1u);
  EXPECT_EQ(engine_->stats().observations, 1u);

  // Pipelined, the good request is decoded into the same run as the bad
  // one; only the bad one is refused.
  persist::io::Writer body;
  std::vector<std::byte> burst;
  encode_observe_request(body, 101, good);
  append_frame(burst, body.bytes());
  encode_observe_request(body, 102, bad);
  append_frame(burst, body.bytes());
  client.send_raw(burst);
  std::vector<std::byte> reply;
  const FrameHeader ack = client.read_reply(reply);
  EXPECT_EQ(ack.type, MsgType::kObserveAck);
  EXPECT_EQ(ack.id, 101u);
  const FrameHeader refused = client.read_reply(reply);
  ASSERT_EQ(refused.type, MsgType::kError);
  EXPECT_EQ(refused.id, 102u);
  persist::io::Reader r(reply);
  (void)decode_header(r);
  EXPECT_EQ(decode_error(r).code, ErrorCode::kBadRequest);
  EXPECT_EQ(engine_->stats().observations, 2u);
}

// An engine failure part-way through a coalesced run (here a training whose
// finite samples overflow) is a server fault: every request of the run gets
// kInternal, and none of it is applied a second time.
TEST_F(LoopbackTest, MidApplyFailureGetsInternalAndAppliesOnce) {
  Client client = connect();
  std::vector<serve::Observation> accumulate(11);
  for (std::size_t i = 0; i < accumulate.size(); ++i) {
    accumulate[i] = {key_of(0), i < 2 ? 1e308 : 50.0 + static_cast<double>(i)};
  }
  EXPECT_EQ(client.observe(accumulate), accumulate.size());

  // The 12th sample completes the training window, whose fit then throws.
  const std::vector<serve::Observation> completes = {{key_of(0), 50.0}};
  const std::vector<serve::Observation> other = {{key_of(1), 50.0}};
  persist::io::Writer body;
  std::vector<std::byte> burst;
  encode_observe_request(body, 201, completes);
  append_frame(burst, body.bytes());
  encode_observe_request(body, 202, other);
  append_frame(burst, body.bytes());
  client.send_raw(burst);
  std::vector<std::byte> reply;
  const FrameHeader failed = client.read_reply(reply);
  ASSERT_EQ(failed.type, MsgType::kError);
  EXPECT_EQ(failed.id, 201u);
  persist::io::Reader r(reply);
  (void)decode_header(r);
  EXPECT_EQ(decode_error(r).code, ErrorCode::kInternal);
  EXPECT_EQ(client.read_reply(reply).id, 202u);
  EXPECT_EQ(engine_->stats().observations, accumulate.size() + 2);
  EXPECT_FALSE(engine_->is_trained(key_of(0)));
  client.ping();  // the connection keeps serving
}

TEST_F(LoopbackTest, UnknownMessageTypeGetsBadRequest) {
  Client client = connect();
  persist::io::Writer body;
  body.u8(0x6E);  // no such type
  body.u64(4);
  std::vector<std::byte> frame;
  append_frame(frame, body.bytes());
  client.send_raw(frame);
  std::vector<std::byte> reply;
  const FrameHeader h = client.read_reply(reply);
  EXPECT_EQ(h.type, MsgType::kError);
  EXPECT_EQ(h.id, 4u);
}

TEST_F(LoopbackTest, ManyConcurrentClients) {
  // One thread per client, all observing disjoint series across both event
  // loops; the engine must absorb every observation exactly once.
  const std::size_t kClients = 4;
  const std::size_t kSteps = 25;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c] {
      Client client("127.0.0.1", server_->port());
      std::vector<serve::Observation> one(1);
      for (std::size_t step = 0; step < kSteps; ++step) {
        one[0] = {key_of(100 + c), static_cast<double>(step)};
        ASSERT_EQ(client.observe(one), 1u);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(engine_->stats().observations, kClients * kSteps);
  EXPECT_GE(server_->stats().connections_accepted, kClients);
}

TEST_F(LoopbackTest, AbruptDisconnectLeavesServerServing) {
  {
    Client rude = connect();
    rude.ping();
  }  // destructor closes mid-session
  Client polite = connect();
  polite.ping();  // the loop that owned the dead conn still serves
}

}  // namespace
}  // namespace larp::net
