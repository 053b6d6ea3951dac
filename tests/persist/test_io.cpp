// Tests for the persist byte-level primitives: the little-endian io
// encoder/decoder and the CRC32C checksum.
#include "persist/io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "persist/crc32c.hpp"
#include "util/rng.hpp"

namespace larp::persist {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// Pins the portable slicing-by-8 path for one scope.
class PortableCrc32c {
 public:
  PortableCrc32c() : was_portable_(testing::force_portable_crc32c(true)) {}
  ~PortableCrc32c() { (void)testing::force_portable_crc32c(was_portable_); }
  PortableCrc32c(const PortableCrc32c&) = delete;
  PortableCrc32c& operator=(const PortableCrc32c&) = delete;

 private:
  bool was_portable_;
};

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) {
    b = static_cast<std::byte>(rng.uniform_int(0, 255));
  }
  return out;
}

void expect_known_vectors() {
  EXPECT_EQ(crc32c(as_bytes("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c(as_bytes("")), 0x00000000u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c(as_bytes(zeros)), 0x8A9136AAu);
}

// The canonical check vector from the iSCSI CRC32C specification, on the
// path the CPU selects and on the portable one.
TEST(Crc32c, MatchesKnownVectors) {
  expect_known_vectors();
  const PortableCrc32c portable;
  EXPECT_FALSE(testing::crc32c_uses_sse42());
  expect_known_vectors();
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t state = crc32c_init();
    state = crc32c_update(state, as_bytes(data.substr(0, split)));
    state = crc32c_update(state, as_bytes(data.substr(split)));
    EXPECT_EQ(crc32c_finish(state), crc32c(as_bytes(data)));
  }
}

// The SSE4.2 path against the slicing-by-8 reference: every length from 0
// to 4096 at every start offset 0-7, so each alignment of the 8-byte loop
// and each tail length is covered.
TEST(Crc32c, HardwarePathMatchesThePortableReference) {
  if (!testing::crc32c_uses_sse42()) GTEST_SKIP() << "CPU has no SSE4.2";
  const auto data = random_bytes(4096 + 8, 17);
  std::vector<std::uint32_t> hardware;
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 4096; ++n) {
      hardware.push_back(crc32c(std::span(data).subspan(offset, n)));
    }
  }
  const PortableCrc32c portable;
  std::size_t at = 0;
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 4096; ++n) {
      ASSERT_EQ(hardware[at++], crc32c(std::span(data).subspan(offset, n)))
          << "offset " << offset << " length " << n;
    }
  }
}

// Incremental updates split anywhere — including mid-word, so a hardware
// update starts and ends unaligned — give the portable one-shot checksum.
TEST(Crc32c, HardwareIncrementalSplitsMatchThePortableOneShot) {
  if (!testing::crc32c_uses_sse42()) GTEST_SKIP() << "CPU has no SSE4.2";
  const auto data = random_bytes(203, 29);
  const std::span<const std::byte> all(data);
  std::uint32_t want = 0;
  {
    const PortableCrc32c portable;
    want = crc32c(all);
  }
  for (std::size_t a = 0; a <= all.size(); ++a) {
    for (std::size_t b = a; b <= all.size(); b += 7) {
      std::uint32_t state = crc32c_init();
      state = crc32c_update(state, all.first(a));
      state = crc32c_update(state, all.subspan(a, b - a));
      state = crc32c_update(state, all.subspan(b));
      ASSERT_EQ(crc32c_finish(state), want) << "splits " << a << ", " << b;
    }
  }
}

TEST(Crc32c, MaskRoundTrips) {
  for (std::uint32_t crc : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu, 0xE3069283u}) {
    EXPECT_EQ(crc32c_unmask(crc32c_mask(crc)), crc);
    EXPECT_NE(crc32c_mask(crc), crc);  // masking must actually change it
  }
}

TEST(IoWriter, RoundTripsEveryType) {
  io::Writer w;
  w.u8(0x7F);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.boolean(true);
  w.boolean(false);
  w.str("hello");
  w.str("");
  w.f64_span(std::vector<double>{1.5, -2.5, 0.0});
  const std::vector<std::size_t> labels{0, 7, 123456789};
  w.u64_span(labels);

  io::Reader r{w.bytes()};
  EXPECT_EQ(r.u8(), 0x7F);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.f64_vector(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(r.u64_vector(), labels);
  EXPECT_TRUE(r.exhausted());
}

// Doubles travel as IEEE-754 bit patterns: the round trip must be
// bit-identical, not just approximately equal.
TEST(IoWriter, DoublesAreBitIdentical) {
  Rng rng(7);
  io::Writer w;
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.normal(0.0, 1e12));
  values.push_back(-0.0);
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(std::numeric_limits<double>::denorm_min());
  for (double v : values) w.f64(v);
  io::Reader r{w.bytes()};
  for (double v : values) {
    const double got = r.f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(v));
  }
}

TEST(IoWriter, LittleEndianOnTheWire) {
  io::Writer w;
  w.u32(0x01020304u);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(std::to_integer<int>(w.bytes()[0]), 0x04);
  EXPECT_EQ(std::to_integer<int>(w.bytes()[3]), 0x01);
}

TEST(IoWriter, PatchU64FillsReservedSlot) {
  io::Writer w;
  w.u8(0xAA);
  const auto slot = w.reserve_u64();
  w.u8(0xBB);
  w.patch_u64(slot, 0xFEEDFACEull);
  io::Reader r{w.bytes()};
  EXPECT_EQ(r.u8(), 0xAA);
  EXPECT_EQ(r.u64(), 0xFEEDFACEull);
  EXPECT_EQ(r.u8(), 0xBB);
}

TEST(IoReader, ThrowsOnOverrun) {
  io::Writer w;
  w.u32(1);
  io::Reader r{w.bytes()};
  EXPECT_THROW((void)r.u64(), CorruptData);
}

TEST(IoReader, ThrowsOnBadBoolean) {
  io::Writer w;
  w.u8(2);
  io::Reader r{w.bytes()};
  EXPECT_THROW((void)r.boolean(), CorruptData);
}

// A corrupt length prefix must be rejected before any allocation happens —
// this is the guard against reserving gigabytes off four flipped bytes.
TEST(IoReader, ThrowsOnImpossibleLengthPrefix) {
  io::Writer w;
  w.u64(std::numeric_limits<std::uint64_t>::max());
  {
    io::Reader r{w.bytes()};
    EXPECT_THROW((void)r.str(), CorruptData);
  }
  {
    io::Reader r{w.bytes()};
    EXPECT_THROW((void)r.f64_vector(), CorruptData);
  }
  {
    io::Reader r{w.bytes()};
    EXPECT_THROW((void)r.u64_vector(), CorruptData);
  }
}

TEST(IoWriter, ClearReusesBuffer) {
  io::Writer w;
  w.u64(1);
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  w.u8(9);
  io::Reader r{w.bytes()};
  EXPECT_EQ(r.u8(), 9);
  EXPECT_TRUE(r.exhausted());
}

}  // namespace
}  // namespace larp::persist
