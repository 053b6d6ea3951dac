#include "replication/log.hpp"

namespace larp::replication {

bool covers(std::span<const std::uint64_t> a,
            std::span<const std::uint64_t> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) return false;
  }
  return true;
}

std::uint64_t total_frames(std::span<const std::uint64_t> p) {
  std::uint64_t total = 0;
  for (std::uint64_t v : p) total += v;
  return total;
}

}  // namespace larp::replication
