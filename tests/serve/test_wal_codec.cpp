// WalPayloadCodec — block WAL frame round-trips, the cross-frame state
// machine, and malformed-payload rejection (engine payload v4).
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <limits>
#include <vector>

#include "persist/io.hpp"
#include "serve/wal_codec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace larp::serve {
namespace {

using tsdb::SeriesKey;

std::vector<std::byte> copy(std::span<const std::byte> s) {
  return {s.begin(), s.end()};
}

struct DecodedOp {
  std::uint8_t type;
  SeriesKey key;
  double value;
};

std::vector<DecodedOp> decode_all(WalPayloadCodec& codec,
                                  std::span<const std::byte> payload) {
  std::vector<DecodedOp> out;
  codec.decode(payload, [&](const WalOp& op) {
    out.push_back({op.type, *op.key, op.value});
  });
  return out;
}

TEST(WalCodecTest, SingleBlockRoundTripsAllOpTypes) {
  const SeriesKey a{"vm0", "dev0", "cpu"};
  const SeriesKey b{"vm1", "dev1", "mem"};
  WalPayloadCodec enc;
  enc.begin_block(4);
  enc.add_observe(a, 41.5);
  enc.add_observe(b, -0.25);
  enc.add_predict(a);
  enc.add_erase(b);
  const auto payload = copy(enc.finish_block());

  ASSERT_TRUE(WalPayloadCodec::is_block(payload));
  EXPECT_EQ(WalPayloadCodec::payload_weight(payload), 4u);

  WalPayloadCodec dec;
  const auto ops = decode_all(dec, payload);
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].type, 0);
  EXPECT_EQ(ops[0].key, a);
  EXPECT_EQ(ops[0].value, 41.5);
  EXPECT_EQ(ops[1].type, 0);
  EXPECT_EQ(ops[1].key, b);
  EXPECT_EQ(ops[1].value, -0.25);
  EXPECT_EQ(ops[2].type, 1);
  EXPECT_EQ(ops[2].key, a);
  EXPECT_EQ(ops[3].type, 2);
  EXPECT_EQ(ops[3].key, b);
  EXPECT_EQ(dec.dictionary_size(), 2u);
}

TEST(WalCodecTest, DictionaryAndXorChainSpanFrames) {
  // Keys ship their strings once; later frames reference ids, and each
  // series' XOR chain continues across frames — the decoder must track
  // both through a multi-frame stream.
  Rng rng(101);
  std::vector<SeriesKey> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back({"host" + std::to_string(i / 2),
                    "dev" + std::to_string(i % 2),
                    i % 3 == 0 ? "cpu" : "mem"});
  }
  WalPayloadCodec enc;
  WalPayloadCodec dec;
  std::vector<double> levels(keys.size(), 100.0);
  std::size_t first_frame_size = 0;
  std::size_t last_frame_size = 0;
  for (int frame = 0; frame < 20; ++frame) {
    enc.begin_block(keys.size());
    std::vector<double> expect;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      levels[k] = 0.9 * levels[k] + rng.normal(0.0, 2.0);
      enc.add_observe(keys[k], levels[k]);
      expect.push_back(levels[k]);
    }
    const auto payload = copy(enc.finish_block());
    if (frame == 0) first_frame_size = payload.size();
    last_frame_size = payload.size();
    const auto ops = decode_all(dec, payload);
    ASSERT_EQ(ops.size(), keys.size());
    for (std::size_t k = 0; k < keys.size(); ++k) {
      EXPECT_EQ(ops[k].key, keys[k]);
      EXPECT_EQ(ops[k].value, expect[k]);
    }
  }
  EXPECT_EQ(dec.dictionary_size(), keys.size());
  // Frames after the dictionary is warm drop the key strings entirely.
  EXPECT_LT(last_frame_size, first_frame_size / 2);
}

TEST(WalCodecTest, SaveLoadResumesTheChainMidStream) {
  // The snapshot cut: encode N frames, persist the codec state after the
  // first half, and decode only the second half starting from that state —
  // exactly what recovery does when frames below the watermark are covered
  // by the snapshot.
  Rng rng(202);
  const SeriesKey key{"vm", "disk0", "iops"};
  WalPayloadCodec enc;
  std::vector<std::vector<std::byte>> frames;
  std::vector<double> values;
  double level = 10.0;
  persist::io::Writer saved;
  for (int frame = 0; frame < 12; ++frame) {
    if (frame == 6) enc.save(saved);  // the watermark cut
    enc.begin_block(1);
    level += rng.normal(0.0, 1.0);
    values.push_back(level);
    enc.add_observe(key, level);
    frames.push_back(copy(enc.finish_block()));
  }

  WalPayloadCodec resumed;
  persist::io::Reader r{saved.bytes()};
  resumed.load(r);
  EXPECT_EQ(resumed.dictionary_size(), 1u);
  for (int frame = 6; frame < 12; ++frame) {
    const auto ops = decode_all(resumed, frames[static_cast<std::size_t>(frame)]);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ops[0].value),
              std::bit_cast<std::uint64_t>(
                  values[static_cast<std::size_t>(frame)]));
  }
}

TEST(WalCodecTest, EraseKeepsTheDictionaryEntryStable) {
  const SeriesKey a{"vm0", "d", "cpu"};
  const SeriesKey b{"vm1", "d", "cpu"};
  WalPayloadCodec enc;
  WalPayloadCodec dec;
  enc.begin_block(3);
  enc.add_observe(a, 1.0);
  enc.add_erase(a);
  enc.add_observe(b, 2.0);
  auto ops = decode_all(dec, copy(enc.finish_block()));
  ASSERT_EQ(ops.size(), 3u);

  // A re-created series reuses its id and resumes the XOR chain; b's id
  // must not have shifted.
  enc.begin_block(2);
  enc.add_observe(a, 1.5);
  enc.add_observe(b, 2.5);
  ops = decode_all(dec, copy(enc.finish_block()));
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].key, a);
  EXPECT_EQ(ops[0].value, 1.5);
  EXPECT_EQ(ops[1].key, b);
  EXPECT_EQ(ops[1].value, 2.5);
  EXPECT_EQ(dec.dictionary_size(), 2u);
}

TEST(WalCodecTest, AdversarialObserveValuesRoundTrip) {
  const SeriesKey key{"vm", "d", "m"};
  const std::vector<double> specials = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -0.0};
  WalPayloadCodec enc;
  WalPayloadCodec dec;
  enc.begin_block(specials.size());
  for (const double v : specials) enc.add_observe(key, v);
  const auto ops = decode_all(dec, copy(enc.finish_block()));
  ASSERT_EQ(ops.size(), specials.size());
  for (std::size_t i = 0; i < specials.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ops[i].value),
              std::bit_cast<std::uint64_t>(specials[i]));
  }
}

TEST(WalCodecTest, LegacyPerOpPayloadIsNotABlock) {
  // Legacy payloads start with their type byte (0/1/2); the marker keeps
  // the two formats first-byte distinguishable.
  const std::vector<std::byte> legacy = {std::byte{0}, std::byte{3},
                                         std::byte{'v'}, std::byte{'m'}};
  EXPECT_FALSE(WalPayloadCodec::is_block(legacy));
  EXPECT_EQ(WalPayloadCodec::payload_weight(legacy), 1u);
  EXPECT_FALSE(WalPayloadCodec::is_block({}));
}

TEST(WalCodecTest, DecodesLegacyPerOpPayloadsWithoutTouchingItsState) {
  const auto per_op = [](std::uint8_t type, const SeriesKey& key,
                         double value) {
    persist::io::Writer w;
    w.u8(type);
    w.str(key.vm_id);
    w.str(key.device_id);
    w.str(key.metric);
    if (type == kWalObserve) w.f64(value);
    return copy(w.bytes());
  };
  const SeriesKey key{"vm7", "dev1", "disk"};
  WalPayloadCodec dec;
  auto ops = decode_all(dec, per_op(kWalObserve, key, 12.75));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].type, kWalObserve);
  EXPECT_EQ(ops[0].key, key);
  EXPECT_EQ(ops[0].value, 12.75);
  ops = decode_all(dec, per_op(kWalErase, key, 0.0));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].type, kWalErase);
  EXPECT_EQ(ops[0].key, key);
  // Per-op frames carry their keys in full: the block dictionary stays as
  // it was, so block frames that follow keep their ids.
  EXPECT_EQ(dec.dictionary_size(), 0u);
  EXPECT_THROW((void)decode_all(dec, per_op(3, key, 0.0)),
               persist::CorruptData);
}

TEST(WalCodecTest, OpCountMismatchThrows) {
  WalPayloadCodec enc;
  enc.begin_block(2);
  enc.add_predict({"vm", "d", "m"});
  EXPECT_THROW((void)enc.finish_block(), StateError);
}

TEST(WalCodecTest, MalformedBlocksAreRejected) {
  const auto decode = [](const std::vector<std::byte>& payload) {
    WalPayloadCodec codec;
    codec.decode(payload, [](const WalOp&) {});
  };
  // Bad marker.
  EXPECT_THROW(decode({std::byte{0xB2}, std::byte{1}}), persist::CorruptData);
  // Impossible op count for the payload size.
  EXPECT_THROW(decode({std::byte{0xB1}, std::byte{0xFF}, std::byte{0xFF},
                       std::byte{0x7F}}),
               persist::CorruptData);
  // Count promises ops the stream does not hold.
  {
    WalPayloadCodec enc;
    enc.begin_block(1);
    enc.add_observe({"vm", "d", "m"}, 1.0);
    auto payload = copy(enc.finish_block());
    payload[1] = std::byte{9};  // lie about the op count
    EXPECT_THROW(decode(payload), persist::CorruptData);
  }
  // Truncated mid-op.
  {
    WalPayloadCodec enc;
    enc.begin_block(2);
    enc.add_observe({"vm", "d", "m"}, 1.0);
    enc.add_observe({"other", "d", "m"}, 2.0);
    auto payload = copy(enc.finish_block());
    payload.resize(payload.size() / 2);
    EXPECT_THROW(decode(payload), persist::CorruptData);
  }
}

TEST(WalCodecTest, DuplicateKeyInSavedStateIsRejected) {
  persist::io::Writer w;
  w.u64(2);
  for (int i = 0; i < 2; ++i) {
    w.str("vm");
    w.str("d");
    w.str("m");
    persist::codec::XorState{}.save(w);
  }
  persist::io::Reader r{w.bytes()};
  WalPayloadCodec codec;
  EXPECT_THROW(codec.load(r), persist::CorruptData);
}

}  // namespace
}  // namespace larp::serve
