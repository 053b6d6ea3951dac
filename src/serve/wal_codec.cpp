#include "serve/wal_codec.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "util/error.hpp"

namespace larp::serve {

namespace {

constexpr std::size_t kMaxKeyPart = 1u << 20;  // sanity bound on decode

void put_string(persist::codec::BlockWriter& w, const std::string& s) {
  w.uvarint(s.size());
  for (const char c : s) w.bits(static_cast<std::uint8_t>(c), 8);
}

std::string get_string(persist::codec::BlockReader& r) {
  const std::uint64_t n = r.uvarint();
  if (n > kMaxKeyPart) {
    throw persist::CorruptData("wal block: key component too long");
  }
  std::string s;
  s.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(r.bits(8)));
  }
  return s;
}

}  // namespace

unsigned WalPayloadCodec::id_bits() const {
  // Width both sides derive from the dictionary size alone, so it needs no
  // bytes on the wire.  One key still takes one bit (id 0) — a zero-bit
  // field would make the new-key flag ambiguous to fuzzers' eyes, and a
  // whole bit per op is cheap.
  const std::size_t n = keys_.size();
  return n <= 1
             ? 1u
             : static_cast<unsigned>(std::bit_width(n - 1));
}

std::uint32_t WalPayloadCodec::intern(const tsdb::SeriesKey& key, bool encode) {
  const auto it = ids_.find(key);
  if (it != ids_.end()) {
    if (encode) {
      writer_.bit(false);  // known key
      writer_.bits(it->second, id_bits());
    }
    return it->second;
  }
  if (encode) {
    writer_.bit(true);  // new key: ships its strings, takes the next id
    put_string(writer_, key.vm_id);
    put_string(writer_, key.device_id);
    put_string(writer_, key.metric);
  }
  const auto id = static_cast<std::uint32_t>(keys_.size());
  keys_.push_back(key);
  ids_.emplace(keys_.back(), id);
  values_.emplace_back();
  return id;
}

void WalPayloadCodec::begin_block(std::size_t op_count) {
  writer_.clear();
  writer_.bits(kWalBlockMarker, 8);
  writer_.uvarint(op_count);
  pending_ops_ = op_count;
  added_ops_ = 0;
}

void WalPayloadCodec::add_observe(const tsdb::SeriesKey& key, double value) {
  writer_.bits(kWalObserve, 2);
  const std::uint32_t id = intern(key, /*encode=*/true);
  persist::codec::XorEncoder::put(writer_, values_[id], value);
  ++added_ops_;
}

void WalPayloadCodec::add_predict(const tsdb::SeriesKey& key) {
  writer_.bits(kWalPredict, 2);
  (void)intern(key, /*encode=*/true);
  ++added_ops_;
}

void WalPayloadCodec::add_erase(const tsdb::SeriesKey& key) {
  writer_.bits(kWalErase, 2);
  // The dictionary entry outlives the series: ids must stay stable for any
  // frame already written, and a re-created series resumes the chain.
  (void)intern(key, /*encode=*/true);
  ++added_ops_;
}

std::span<const std::byte> WalPayloadCodec::finish_block() {
  if (added_ops_ != pending_ops_) {
    throw StateError("WalPayloadCodec: block op count mismatch");
  }
  return writer_.bytes();
}

std::size_t WalPayloadCodec::payload_weight(
    std::span<const std::byte> payload) {
  if (!is_block(payload)) return 1;
  persist::codec::BlockReader r(payload);
  (void)r.bits(8);  // marker
  return static_cast<std::size_t>(std::max<std::uint64_t>(1, r.uvarint()));
}

std::uint32_t WalPayloadCodec::get_key(persist::codec::BlockReader& r) {
  if (r.bit()) {
    tsdb::SeriesKey key;
    key.vm_id = get_string(r);
    key.device_id = get_string(r);
    key.metric = get_string(r);
    // A "new key" the dictionary already holds would desync the id widths
    // between encoder and decoder — corrupt by construction.
    if (ids_.contains(key)) {
      throw persist::CorruptData("wal block: duplicate new-key entry");
    }
    return intern(key, /*encode=*/false);
  }
  const auto id = static_cast<std::uint32_t>(r.bits(id_bits()));
  if (id >= keys_.size()) {
    throw persist::CorruptData("wal block: key id out of range");
  }
  return id;
}

void WalPayloadCodec::decode(std::span<const std::byte> payload,
                             const std::function<void(const WalOp&)>& fn) {
  if (is_block(payload)) {
    decode_block(payload, fn);
    return;
  }
  persist::io::Reader r{payload};
  WalOp op;
  op.type = r.u8();
  if (op.type > kWalErase) {
    throw persist::CorruptData("wal frame: unknown type " +
                               std::to_string(op.type));
  }
  const tsdb::SeriesKey key{r.str(), r.str(), r.str()};
  if (op.type == kWalObserve) op.value = r.f64();
  op.key = &key;
  fn(op);
}

void WalPayloadCodec::decode_block(
    std::span<const std::byte> payload,
    const std::function<void(const WalOp&)>& fn) {
  persist::codec::BlockReader r(payload);
  if (r.bits(8) != kWalBlockMarker) {
    throw persist::CorruptData("wal block: bad marker");
  }
  const std::uint64_t count = r.uvarint();
  // A block frame is bounded by the batch size that produced it; anything
  // astronomically larger is a corrupt count about to starve the replay.
  if (count > (payload.size() + 1) * 8) {
    throw persist::CorruptData("wal block: impossible op count");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    WalOp op;
    op.type = static_cast<std::uint8_t>(r.bits(2));
    if (op.type > kWalErase) {
      throw persist::CorruptData("wal block: unknown op type");
    }
    const std::uint32_t id = get_key(r);
    if (op.type == kWalObserve) {
      op.value = persist::codec::XorDecoder::get(r, values_[id]);
    }
    op.key = &keys_[id];
    fn(op);
  }
}

void WalPayloadCodec::save(persist::io::Writer& w) const {
  w.u64(keys_.size());
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    w.str(keys_[i].vm_id);
    w.str(keys_[i].device_id);
    w.str(keys_[i].metric);
    values_[i].save(w);
  }
}

void WalPayloadCodec::load(persist::io::Reader& r) {
  keys_.clear();
  ids_.clear();
  values_.clear();
  const auto n = static_cast<std::size_t>(r.length(r.u64(), 10));
  for (std::size_t i = 0; i < n; ++i) {
    tsdb::SeriesKey key{r.str(), r.str(), r.str()};
    if (ids_.contains(key)) {
      throw persist::CorruptData("wal codec table: duplicate key");
    }
    keys_.push_back(std::move(key));
    ids_.emplace(keys_.back(), static_cast<std::uint32_t>(i));
    values_.emplace_back();
    values_.back().load(r);
  }
}

}  // namespace larp::serve
