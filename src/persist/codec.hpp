// persist::codec — Gorilla-style bit-packing primitives for time-series
// payloads (DESIGN.md §11).
//
// Two encoders cover the two shapes durable payloads are made of:
//
//   * DodEncoder/DodDecoder — delta-of-delta for monotone-ish integer
//     sequences (logical timestamps, sequence numbers).  Regularly sampled
//     series have a constant delta, so the second difference is almost
//     always zero: one bit per value.  Buckets widen for jitter and fall
//     back to a full zigzag value for arbitrary (backward, irregular)
//     jumps, so round-trip is exact for ANY int64 sequence.
//
//   * XorEncoder/XorDecoder — IEEE-754 doubles XORed against the previous
//     value's bit pattern.  Slowly-varying doubles share sign/exponent and
//     leading mantissa bits, so the XOR is a short run of meaningful bits
//     inside a stable (leading-zeros, length) window.  Encoding operates on
//     bit patterns only — never on arithmetic values — so every payload
//     (NaN payloads included) round-trips bit-exactly.  Non-finite and
//     denormal values additionally force the UNCOMPRESSED ESCAPE (a full
//     64-bit window): adversarial bit patterns cost 67 bits, never a
//     pathological window search, and a reader needs no special cases.
//
// Both encoders are explicit state machines (prev/prev-delta, prev-bits +
// window) whose state can be saved/loaded, so a chain may span many frames:
// the serving engine persists codec state in the snapshot and continues the
// chain across crash recovery (see serve/wal_codec.hpp).
//
// Bit order: values are appended least-significant-bit first into a byte
// stream; BlockWriter/BlockReader agree and nothing else reads the bits.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "persist/io.hpp"

namespace larp::persist::codec {

/// Append-only bit stream.  Reuse across blocks (clear()) keeps steady-state
/// encoding allocation-free once capacity is established.
class BlockWriter {
 public:
  void clear() noexcept {
    buffer_.clear();
    acc_ = 0;
    acc_bits_ = 0;
  }

  /// Appends the low `count` bits of `value` (count <= 64).
  void bits(std::uint64_t value, unsigned count) {
    while (count > 0) {
      const unsigned take = std::min(count, 64u - acc_bits_);
      std::uint64_t chunk = value;
      if (take < 64u) chunk &= (1ull << take) - 1ull;
      acc_ |= chunk << acc_bits_;
      acc_bits_ += take;
      value = take < 64u ? value >> take : 0;
      count -= take;
      if (acc_bits_ == 64u) spill();
    }
  }

  void bit(bool v) { bits(v ? 1u : 0u, 1); }

  /// LEB128-style varint inside the bit stream (7 value bits + 1 continue
  /// bit per group); unbounded range, cheap for the small counts it carries.
  void uvarint(std::uint64_t v) {
    while (v >= 0x80u) {
      bits((v & 0x7Fu) | 0x80u, 8);
      v >>= 7;
    }
    bits(v, 8);
  }

  /// Flushes the partial accumulator (zero-padded to a byte boundary) and
  /// returns the encoded bytes.  The writer stays usable: bytes() may be
  /// called once, at the end of a block.
  [[nodiscard]] std::span<const std::byte> bytes() {
    while (acc_bits_ > 0) {
      buffer_.push_back(static_cast<std::byte>(acc_ & 0xFFu));
      acc_ >>= 8;
      acc_bits_ -= std::min(acc_bits_, 8u);
    }
    acc_ = 0;
    return buffer_;
  }

 private:
  void spill() {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<std::byte>((acc_ >> (8 * i)) & 0xFFu));
    }
    acc_ = 0;
    acc_bits_ = 0;
  }

  std::vector<std::byte> buffer_;
  std::uint64_t acc_ = 0;
  unsigned acc_bits_ = 0;
};

/// Bounds-checked reader over a BlockWriter's bytes.  Reading past the end
/// throws CorruptData, mirroring io::Reader's contract.
class BlockReader {
 public:
  explicit BlockReader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint64_t bits(unsigned count) {
    std::uint64_t out = 0;
    unsigned got = 0;
    while (got < count) {
      if (acc_bits_ == 0) refill();
      const unsigned take = std::min(count - got, acc_bits_);
      const std::uint64_t mask =
          take < 64u ? (1ull << take) - 1ull : ~0ull;
      out |= (acc_ & mask) << got;
      acc_ >>= (take < 64u ? take : 0);
      if (take == 64u) acc_ = 0;
      acc_bits_ -= take;
      got += take;
    }
    return out;
  }

  [[nodiscard]] bool bit() { return bits(1) != 0; }

  [[nodiscard]] std::uint64_t uvarint() {
    std::uint64_t out = 0;
    unsigned shift = 0;
    for (;;) {
      const std::uint64_t group = bits(8);
      out |= (group & 0x7Fu) << shift;
      if ((group & 0x80u) == 0) return out;
      shift += 7;
      if (shift > 63) throw CorruptData("codec: uvarint exceeds 64 bits");
    }
  }

 private:
  void refill() {
    if (cursor_ >= data_.size()) {
      throw CorruptData("codec: read past end of block");
    }
    const std::size_t take = std::min<std::size_t>(8, data_.size() - cursor_);
    acc_ = 0;
    for (std::size_t i = 0; i < take; ++i) {
      acc_ |= static_cast<std::uint64_t>(
                  std::to_integer<std::uint8_t>(data_[cursor_ + i]))
              << (8 * i);
    }
    cursor_ += take;
    acc_bits_ = static_cast<unsigned>(8 * take);
  }

  std::span<const std::byte> data_;
  std::size_t cursor_ = 0;
  std::uint64_t acc_ = 0;
  unsigned acc_bits_ = 0;
};

[[nodiscard]] inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Delta-of-delta integer encoder.  First value: zigzag uvarint.  Then, with
/// d = v - prev and dod = d - prev_delta (both in wrapping arithmetic so
/// INT64 extremes round-trip):
///   dod == 0            -> '0'
///   dod in [-63, 64]    -> '10'   + 7 bits  (dod + 63)
///   dod in [-255, 256]  -> '110'  + 9 bits  (dod + 255)
///   dod in [-2047,2048] -> '1110' + 12 bits (dod + 2047)
///   otherwise           -> '1111' + zigzag uvarint(dod)
class DodEncoder {
 public:
  void reset() { *this = DodEncoder{}; }

  void put(BlockWriter& w, std::int64_t v) {
    if (first_) {
      w.uvarint(zigzag(v));
      prev_ = v;
      prev_delta_ = 0;
      first_ = false;
      return;
    }
    const std::int64_t delta = wrap_sub(v, prev_);
    const std::int64_t dod = wrap_sub(delta, prev_delta_);
    if (dod == 0) {
      w.bit(false);
    } else if (dod >= -63 && dod <= 64) {
      w.bits(0b01u, 2);  // LSB-first: reads as '1' then '0'
      w.bits(static_cast<std::uint64_t>(dod + 63), 7);
    } else if (dod >= -255 && dod <= 256) {
      w.bits(0b011u, 3);
      w.bits(static_cast<std::uint64_t>(dod + 255), 9);
    } else if (dod >= -2047 && dod <= 2048) {
      w.bits(0b0111u, 4);
      w.bits(static_cast<std::uint64_t>(dod + 2047), 12);
    } else {
      w.bits(0b1111u, 4);
      w.uvarint(zigzag(dod));
    }
    prev_ = v;
    prev_delta_ = delta;
  }

 private:
  static std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
  }

  std::int64_t prev_ = 0;
  std::int64_t prev_delta_ = 0;
  bool first_ = true;
};

class DodDecoder {
 public:
  void reset() { *this = DodDecoder{}; }

  [[nodiscard]] std::int64_t get(BlockReader& r) {
    if (first_) {
      prev_ = unzigzag(r.uvarint());
      prev_delta_ = 0;
      first_ = false;
      return prev_;
    }
    std::int64_t dod = 0;
    if (r.bit()) {
      if (!r.bit()) {
        dod = static_cast<std::int64_t>(r.bits(7)) - 63;
      } else if (!r.bit()) {
        dod = static_cast<std::int64_t>(r.bits(9)) - 255;
      } else if (!r.bit()) {
        dod = static_cast<std::int64_t>(r.bits(12)) - 2047;
      } else {
        dod = unzigzag(r.uvarint());
      }
    }
    prev_delta_ = wrap_add(prev_delta_, dod);
    prev_ = wrap_add(prev_, prev_delta_);
    return prev_;
  }

 private:
  static std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
  }

  std::int64_t prev_ = 0;
  std::int64_t prev_delta_ = 0;
  bool first_ = true;
};

/// Persistable XOR-chain state: the previous value's bit pattern and the
/// last explicit (leading-zeros, meaningful-length) window.  A fresh state
/// behaves as if the previous value was +0.0 with no reusable window, so
/// the first value of a chain costs the full escape (67 bits) — no special
/// first-value branch, which is what lets a chain span WAL frames.
struct XorState {
  std::uint64_t prev_bits = 0;
  std::uint8_t lead = 0;
  std::uint8_t length = 0;  // 0 = no window established yet

  void save(io::Writer& w) const {
    w.u64(prev_bits);
    w.u8(lead);
    w.u8(length);
  }
  void load(io::Reader& r) {
    prev_bits = r.u64();
    lead = r.u8();
    length = r.u8();
    if (lead > 63 || length > 64 || lead + length > 64) {
      throw CorruptData("codec: corrupt XOR window state");
    }
  }
};

/// XOR double encoder over an explicit XorState.  Per value:
///   xor == 0                        -> '0'
///   fits previous window            -> '10' + length bits
///   new window                      -> '11' + 6 bits lead + 6 bits
///                                      (length - 1) + length bits
/// Non-finite/denormal values force the escape window (lead=0, length=64):
/// 67 bits, trivially bit-exact, no window churn from adversarial patterns.
class XorEncoder {
 public:
  static void put(BlockWriter& w, XorState& s, double value) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    const std::uint64_t x = bits ^ s.prev_bits;
    s.prev_bits = bits;
    if (x == 0) {
      w.bit(false);
      return;
    }
    unsigned lead = static_cast<unsigned>(std::countl_zero(x));
    unsigned trail = static_cast<unsigned>(std::countr_zero(x));
    if (lead > 63) lead = 63;  // keep the 6-bit field honest
    unsigned length = 64 - lead - trail;
    const bool escape = !normal_or_zero(value);
    if (escape) {
      lead = 0;
      length = 64;
    }
    // Reuse the previous window when the XOR fits inside it — one control
    // bit instead of twelve window bits.
    if (!escape && s.length != 0 && lead >= s.lead &&
        lead + length <= static_cast<unsigned>(s.lead) + s.length) {
      w.bits(0b01u, 2);
      w.bits(x >> (64 - s.lead - s.length), s.length);
      return;
    }
    w.bits(0b11u, 2);
    w.bits(lead, 6);
    w.bits(length - 1, 6);
    w.bits(x >> (64 - lead - length), static_cast<unsigned>(length));
    s.lead = static_cast<std::uint8_t>(lead);
    s.length = static_cast<std::uint8_t>(length);
  }

 private:
  static bool normal_or_zero(double v) {
    const std::uint64_t b = std::bit_cast<std::uint64_t>(v);
    const std::uint64_t exponent = (b >> 52) & 0x7FFu;
    // exponent 0 with a mantissa = denormal; exponent 0x7FF = Inf/NaN.
    return exponent != 0x7FFu && (exponent != 0 || (b << 12) == 0);
  }
};

class XorDecoder {
 public:
  [[nodiscard]] static double get(BlockReader& r, XorState& s) {
    if (!r.bit()) {
      return std::bit_cast<double>(s.prev_bits);
    }
    unsigned lead = s.lead;
    unsigned length = s.length;
    if (r.bit()) {
      lead = static_cast<unsigned>(r.bits(6));
      length = static_cast<unsigned>(r.bits(6)) + 1;
      s.lead = static_cast<std::uint8_t>(lead);
      s.length = static_cast<std::uint8_t>(length);
    } else if (length == 0) {
      throw CorruptData("codec: XOR window reuse before any window");
    }
    if (lead + length > 64) {
      throw CorruptData("codec: corrupt XOR window");
    }
    const std::uint64_t x = r.bits(length) << (64 - lead - length);
    s.prev_bits ^= x;
    return std::bit_cast<double>(s.prev_bits);
  }
};

/// Convenience block forms used by snapshot sections: a self-contained
/// chain (fresh state per block) over a whole range of doubles.
template <typename Range>
void encode_f64_block(BlockWriter& w, const Range& xs) {
  XorState state;
  for (const double x : xs) XorEncoder::put(w, state, x);
}
/// Appends `count` values to `out` (any container with push_back) and
/// returns the index of the first.
template <typename Container>
[[nodiscard]] std::size_t decode_f64_block(BlockReader& r, std::size_t count,
                                           Container& out) {
  XorState state;
  const std::size_t at = out.size();
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(XorDecoder::get(r, state));
  }
  return at;
}
void encode_i64_block(BlockWriter& w, std::span<const std::int64_t> xs);
void decode_i64_block(BlockReader& r, std::size_t count,
                      std::vector<std::int64_t>& out);

}  // namespace larp::persist::codec
