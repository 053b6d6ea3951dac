#include "persist/codec.hpp"

namespace larp::persist::codec {

void encode_i64_block(BlockWriter& w, std::span<const std::int64_t> xs) {
  DodEncoder enc;
  for (std::int64_t x : xs) enc.put(w, x);
}

void decode_i64_block(BlockReader& r, std::size_t count,
                      std::vector<std::int64_t>& out) {
  DodDecoder dec;
  out.reserve(out.size() + count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(dec.get(r));
}

}  // namespace larp::persist::codec
