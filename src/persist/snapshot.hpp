// Versioned, checksummed model snapshots.
//
// A snapshot is one self-contained file holding a full serialized engine
// state (payload bytes are produced by the caller — see
// serve::PredictionEngine::snapshot).  File layout, all little-endian:
//
//   [ magic  u64 = "LARPSNP1" ]                      -- format identity
//   [ version u32 ]                                  -- container format version
//   [ epoch   u64 ]                                  -- snapshot ordinal (monotone)
//   [ payload_size u64 ]
//   [ payload bytes ... ]
//   [ crc32c u32 (masked) over everything above ]
//
// Publication is atomic (write-to-temp + fsync + rename + directory fsync),
// and validation is total: a reader accepts a snapshot only when the magic,
// version, size, and checksum all hold, so a bit flip anywhere in the file
// rejects it and recovery falls back to the previous retained snapshot.
//
// Neither side copies the payload: the writer appends the caller's pieces
// and checksums them incrementally, and the reader maps the file read-only
// and validates the mapping.  A published file is never modified, only
// unlinked, so a loaded snapshot stays valid while it is held.
//
// Naming: snapshot-<epoch, 20 digits>.snap in the snapshot directory, so a
// lexicographic directory sort is also an epoch sort.
//
// Shipping: a replication leader sends a published file's bytes from its
// validated mapping (load_snapshot), and the follower's SnapshotReceiver
// writes them to a temp file and publishes it only once load_snapshot
// accepts the whole file.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <vector>

#include "persist/file.hpp"
#include "persist/io.hpp"

namespace larp::persist {

inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// One discovered snapshot file (not yet validated).
struct SnapshotInfo {
  std::filesystem::path path;
  std::uint64_t epoch = 0;
};

/// A validated snapshot.  It owns the read-only mapping of its file, and
/// `payload` views that mapping: it is valid while this object lives.
struct LoadedSnapshot {
  std::uint64_t epoch = 0;
  std::uint32_t version = 0;
  std::span<const std::byte> payload;
  MappedFile file;
};

/// The file name of snapshot epoch `epoch` in `dir`.
[[nodiscard]] std::filesystem::path snapshot_path(
    const std::filesystem::path& dir, std::uint64_t epoch);

/// Atomically publishes `payload` as snapshot epoch `epoch` in `dir`
/// (created if absent).  Returns the published path.
std::filesystem::path publish_snapshot(const std::filesystem::path& dir,
                                       std::uint64_t epoch,
                                       std::span<const std::byte> payload);

/// publish_snapshot() of a payload given as consecutive pieces; the file
/// holds their concatenation, byte for byte.
std::filesystem::path publish_snapshot_pieces(
    const std::filesystem::path& dir, std::uint64_t epoch,
    std::span<const std::span<const std::byte>> pieces);

/// All snapshot files in `dir`, ascending epoch.  Temp files and foreign
/// names are ignored; missing directory yields an empty list.
[[nodiscard]] std::vector<SnapshotInfo> list_snapshots(
    const std::filesystem::path& dir);

/// Maps and validates one snapshot file; throws CorruptData when the magic,
/// version, size, or checksum fails, IoError when unreadable.
[[nodiscard]] LoadedSnapshot load_snapshot(const std::filesystem::path& path);

/// The newest snapshot in `dir` that validates, walking backwards past
/// corrupt or torn files; nullopt when none survives.
[[nodiscard]] std::optional<LoadedSnapshot> load_newest_valid(
    const std::filesystem::path& dir);

/// Deletes the oldest snapshots beyond the newest `keep` (keep >= 1).
/// Corrupt files do not count toward the retained set.
void retain_snapshots(const std::filesystem::path& dir, std::size_t keep);

/// Receives one snapshot file shipped in consecutive chunks and publishes
/// it in `dir` under snapshot_path(), in publish_file()'s order: the chunks
/// go to a temp file next to the final name, which is fsynced, validated by
/// load_snapshot(), renamed, and the directory fsynced.  Only the chunk in
/// hand is ever in memory, so a declared size costs nothing until its bytes
/// arrive.
class SnapshotReceiver {
 public:
  explicit SnapshotReceiver(std::filesystem::path dir);
  /// Removes the temp file of a transfer that did not complete.
  ~SnapshotReceiver();

  SnapshotReceiver(const SnapshotReceiver&) = delete;
  SnapshotReceiver& operator=(const SnapshotReceiver&) = delete;

  /// Appends one chunk of the file snapshot epoch `epoch` ships as
  /// `total_bytes` bytes.  A chunk at offset 0 starts a fresh transfer,
  /// discarding any unfinished one; every other chunk must carry the same
  /// epoch and total, start where the bytes received so far end, and stay
  /// within the total.  The `last` chunk must complete the file.  Returns
  /// true once the file is published, false while more chunks are due.
  /// Throws CorruptData when a chunk breaks these rules or the completed
  /// file fails validation or names another epoch, IoError when the disk
  /// does; either way the transfer is abandoned and nothing is published.
  bool add(std::uint64_t epoch, std::uint64_t total_bytes,
           std::uint64_t offset, std::span<const std::byte> data, bool last);

 private:
  void abandon() noexcept;

  std::filesystem::path dir_;
  std::filesystem::path tmp_;  // empty: no transfer in progress
  AppendFile file_;
  std::uint64_t epoch_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace larp::persist
