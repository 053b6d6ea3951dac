// WalPayloadCodec — the one reader and writer of engine WAL payloads: the
// compressed block encoding the engine writes (engine payload v4; DESIGN.md
// §11), and the legacy per-op payloads that v1/v3 logs still hold (type
// byte, the three key strings as io::Writer::str, and an f64 value for an
// observe).
//
// Instead of one WAL frame per operation (whose 16-byte frame header and
// repeated key strings dominate the bytes), the engine packs every op of a
// (shard, batched-call) pair into ONE bit-packed block frame:
//
//   byte 0          : 0xB1 block marker (legacy per-op payloads start with
//                     the op type byte 0/1/2, so the first byte of a payload
//                     discriminates the two formats — no version bump of the
//                     WAL container needed, and src/replication ships either
//                     transparently since payloads are opaque to it)
//   bits            : uvarint op count, then per op:
//     2 bits        : type (0 observe / 1 predict / 2 erase)
//     1 bit         : new-key flag
//       new key     : 3 × (uvarint length + raw 8-bit chars), assigned the
//                     next dictionary id
//       known key   : dictionary id in ceil(log2(dict size)) bits
//     observe only  : value, XOR-encoded against the SERIES' previous value
//                     (persist::codec::XorEncoder over per-series state)
//
// The codec is a deterministic state machine shared by the encode and
// decode directions: the key dictionary only ever grows (erase keeps the
// entry — ids must stay stable for replay) and per-series XOR chains span
// frames.  Encoding advances the state at stage time under the shard lock;
// decoding a frame advances it identically — so decode(replayed frames,
// starting from the snapshot's saved state) always reproduces the encoder's
// state, which is what lets the chain continue across crash recovery.  The
// engine persists this state per shard in the v4 snapshot at the WAL
// watermark cut; frames below the cut are never decoded (their effect IS
// the saved state), frames at/past it decode from it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "persist/codec.hpp"
#include "persist/io.hpp"
#include "tsdb/series.hpp"

namespace larp::serve {

/// WAL op types: a per-op payload's leading byte, and each block op's
/// 2-bit type.  predict() is logged too: predict_next() mutates the
/// predictor's pending-forecast state and the series' kept forecast, which
/// feed the residual/uncertainty stream and the audit.
inline constexpr std::uint8_t kWalObserve = 0;
inline constexpr std::uint8_t kWalPredict = 1;
inline constexpr std::uint8_t kWalErase = 2;

/// Leading payload byte of a compressed block frame.  Legacy per-op
/// payloads start with their type byte (0, 1, 2), so values >= 0xB0 are
/// free for framing markers.
inline constexpr std::uint8_t kWalBlockMarker = 0xB1;

/// One decoded operation.  `key` is valid during the decode callback (a
/// block op's key lives in the codec's dictionary for the codec's lifetime).
struct WalOp {
  std::uint8_t type = 0;  // kWalObserve / kWalPredict / kWalErase
  const tsdb::SeriesKey* key = nullptr;
  double value = 0.0;  // observe only
};

class WalPayloadCodec {
 public:
  /// Starts a block of exactly `op_count` operations.  The engine knows the
  /// batch size up front, which is what lets the count travel as a prefix.
  void begin_block(std::size_t op_count);
  void add_observe(const tsdb::SeriesKey& key, double value);
  void add_predict(const tsdb::SeriesKey& key);
  void add_erase(const tsdb::SeriesKey& key);
  /// Ends the block and returns its payload bytes (valid until the next
  /// begin_block).  Exactly op_count ops must have been added.
  [[nodiscard]] std::span<const std::byte> finish_block();

  /// Whether a WAL payload is a compressed block (vs a legacy per-op frame).
  [[nodiscard]] static bool is_block(std::span<const std::byte> payload) {
    return !payload.empty() &&
           std::to_integer<std::uint8_t>(payload[0]) == kWalBlockMarker;
  }

  /// Op count of a block payload WITHOUT decoding it (the count prefix is
  /// byte-aligned by construction) — the record weight a follower stages a
  /// relayed frame with.  Returns 1 for legacy per-op payloads.
  [[nodiscard]] static std::size_t payload_weight(
      std::span<const std::byte> payload);

  /// Decodes one WAL payload of either format, invoking `fn` per op in
  /// order.  A block advances the codec state exactly as encoding it did; a
  /// legacy per-op payload leaves it untouched.  Throws persist::CorruptData
  /// on malformed bytes.
  void decode(std::span<const std::byte> payload,
              const std::function<void(const WalOp&)>& fn);

  /// Snapshot persistence of the full codec state (dictionary + per-series
  /// XOR chains), taken at the shard's WAL watermark cut.
  void save(persist::io::Writer& w) const;
  void load(persist::io::Reader& r);

  [[nodiscard]] std::size_t dictionary_size() const { return keys_.size(); }

 private:
  void decode_block(std::span<const std::byte> payload,
                    const std::function<void(const WalOp&)>& fn);
  [[nodiscard]] std::uint32_t intern(const tsdb::SeriesKey& key, bool encode);
  void put_key(const tsdb::SeriesKey& key);
  [[nodiscard]] std::uint32_t get_key(persist::codec::BlockReader& r);
  /// Bits of a known-key id reference given the current dictionary size.
  [[nodiscard]] unsigned id_bits() const;

  // id -> key: deque so WalOp::key pointers survive dictionary growth.
  std::deque<tsdb::SeriesKey> keys_;
  std::unordered_map<tsdb::SeriesKey, std::uint32_t> ids_;
  std::vector<persist::codec::XorState> values_;  // per-series XOR chain

  persist::codec::BlockWriter writer_;
  std::size_t pending_ops_ = 0;  // ops promised to the open block
  std::size_t added_ops_ = 0;
};

}  // namespace larp::serve
