#include "persist/crc32c.hpp"

#include <array>
#include <atomic>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LARP_CRC32C_SSE42 1
#include <nmmintrin.h>
#else
#define LARP_CRC32C_SSE42 0
#endif

namespace larp::persist {

namespace {

// 8 tables of 256 entries: table[0] is the classic byte-at-a-time table for
// the reflected polynomial 0x82F63B78; table[k] advances a byte through k
// additional zero bytes, which is what lets the hot loop fold 8 input bytes
// per iteration (slicing-by-8).
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  constexpr Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t slice = 1; slice < 8; ++slice) {
        crc = t[0][crc & 0xFFu] ^ (crc >> 8);
        t[slice][i] = crc;
      }
    }
  }
};

constexpr Tables kTables{};

std::uint32_t update_portable(std::uint32_t crc,
                              std::span<const std::byte> data) noexcept {
  const auto& t = kTables.t;
  std::size_t i = 0;
  const std::size_t n = data.size();
  for (; i + 8 <= n; i += 8) {
    const auto b = [&](std::size_t j) {
      return static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(data[i + j]));
    };
    const std::uint32_t low = crc ^ (b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24));
    crc = t[7][low & 0xFFu] ^ t[6][(low >> 8) & 0xFFu] ^
          t[5][(low >> 16) & 0xFFu] ^ t[4][low >> 24] ^
          t[3][b(4)] ^ t[2][b(5)] ^ t[1][b(6)] ^ t[0][b(7)];
  }
  for (; i < n; ++i) {
    crc = t[0][(crc ^ std::to_integer<std::uint8_t>(data[i])) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if LARP_CRC32C_SSE42

// The SSE4.2 crc32 instruction computes this same reflected CRC32C step, 8
// bytes per instruction.  Unaligned 8-byte loads go through memcpy.
__attribute__((target("sse4.2"))) std::uint32_t update_sse42(
    std::uint32_t crc, std::span<const std::byte> data) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint64_t wide = crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    wide = _mm_crc32_u64(wide, word);
  }
  auto narrow = static_cast<std::uint32_t>(wide);
  for (; n > 0; ++p, --n) narrow = _mm_crc32_u8(narrow, *p);
  return narrow;
}

bool detect_sse42() noexcept { return __builtin_cpu_supports("sse4.2"); }

#else

bool detect_sse42() noexcept { return false; }

#endif  // LARP_CRC32C_SSE42

// Detected once; tests may pin the portable path.
std::atomic<bool>& use_sse42() noexcept {
  static std::atomic<bool> slot{detect_sse42()};
  return slot;
}

}  // namespace

namespace testing {

bool force_portable_crc32c(bool portable) noexcept {
  const bool was_portable = !use_sse42().load(std::memory_order_relaxed);
  use_sse42().store(!portable && detect_sse42(), std::memory_order_relaxed);
  return was_portable;
}

bool crc32c_uses_sse42() noexcept {
  return use_sse42().load(std::memory_order_relaxed);
}

}  // namespace testing

std::uint32_t crc32c_init() noexcept { return 0xFFFFFFFFu; }

std::uint32_t crc32c_update(std::uint32_t state,
                            std::span<const std::byte> data) noexcept {
#if LARP_CRC32C_SSE42
  if (use_sse42().load(std::memory_order_relaxed)) {
    return update_sse42(state, data);
  }
#endif
  return update_portable(state, data);
}

std::uint32_t crc32c_finish(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c(std::span<const std::byte> data) noexcept {
  return crc32c_finish(crc32c_update(crc32c_init(), data));
}

}  // namespace larp::persist
