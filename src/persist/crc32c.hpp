// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum guarding every durable artifact the persist layer writes —
// snapshot files and write-ahead-log frames.
//
// CRC32C is chosen over the zlib CRC32 because its error-detection
// properties are strictly better for the short-frame sizes a WAL produces
// (it is the checksum of iSCSI, ext4 metadata, LevelDB/RocksDB logs), and
// because the incremental form below lets a frame header's checksum cover a
// sequence number plus a payload without concatenating them first.
//
// Implementation: the SSE4.2 crc32 instruction, 8 bytes per step, where the
// CPU has it (detected once at first use); otherwise slicing-by-8 table
// lookup, ~1 byte/cycle without any ISA dependency.  The portable path is
// also the reference the tests hold the hardware path to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace larp::persist {

/// One-shot CRC32C of a byte range.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data) noexcept;

/// Incremental form: extend a running checksum with more bytes.  Start from
/// crc32c_init() and finish with crc32c_finish() (the init/finish pair hides
/// the pre/post inversion of the reflected algorithm).
[[nodiscard]] std::uint32_t crc32c_init() noexcept;
[[nodiscard]] std::uint32_t crc32c_update(std::uint32_t state,
                                          std::span<const std::byte> data) noexcept;
[[nodiscard]] std::uint32_t crc32c_finish(std::uint32_t state) noexcept;

/// Masked form stored on disk: a checksum of data that itself embeds
/// checksums is vulnerable to systematic collisions, so the stored value is
/// rotated and offset (the LevelDB/RocksDB masking constant).
[[nodiscard]] constexpr std::uint32_t crc32c_mask(std::uint32_t crc) noexcept {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
[[nodiscard]] constexpr std::uint32_t crc32c_unmask(std::uint32_t masked) noexcept {
  const std::uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

namespace testing {

/// Pins crc32c_update to the portable slicing-by-8 path (true), or returns
/// it to CPU detection (false).  Returns whether the portable path was in
/// use before.  Process-global: set from one thread, restore when done.
bool force_portable_crc32c(bool portable) noexcept;

/// Whether crc32c_update currently runs the SSE4.2 path.
[[nodiscard]] bool crc32c_uses_sse42() noexcept;

}  // namespace testing

}  // namespace larp::persist
