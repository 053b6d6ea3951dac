#include "persist/snapshot.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string_view>

#include "persist/crc32c.hpp"
#include "util/log.hpp"

namespace larp::persist {

namespace {

// "LARPSNP1" as a little-endian u64.
constexpr std::uint64_t kMagic = 0x31504E5350524C41ull;
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;  // magic+version+epoch+size
constexpr std::size_t kFooterBytes = 4;              // masked crc32c

// Epoch digits sit between these two; parse by their lengths, never by a
// hardcoded offset (the list_wal_segments shard-id lesson).
constexpr std::string_view kSnapshotPrefix = "snapshot-";
constexpr std::string_view kSnapshotSuffix = ".snap";

}  // namespace

std::filesystem::path snapshot_path(const std::filesystem::path& dir,
                                    std::uint64_t epoch) {
  char name[48];
  std::snprintf(name, sizeof(name), "snapshot-%020llu.snap",
                static_cast<unsigned long long>(epoch));
  return dir / name;
}

std::filesystem::path publish_snapshot(const std::filesystem::path& dir,
                                       std::uint64_t epoch,
                                       std::span<const std::byte> payload) {
  return publish_snapshot_pieces(dir, epoch, std::span(&payload, 1));
}

std::filesystem::path publish_snapshot_pieces(
    const std::filesystem::path& dir, std::uint64_t epoch,
    std::span<const std::span<const std::byte>> pieces) {
  ensure_directory(dir);
  std::uint64_t payload_size = 0;
  for (const auto piece : pieces) payload_size += piece.size();
  io::Writer header;
  header.u64(kMagic);
  header.u32(kSnapshotFormatVersion);
  header.u64(epoch);
  header.u64(payload_size);
  std::uint32_t crc = crc32c_update(crc32c_init(), header.bytes());
  for (const auto piece : pieces) crc = crc32c_update(crc, piece);
  io::Writer footer;
  footer.u32(crc32c_mask(crc32c_finish(crc)));

  std::vector<std::span<const std::byte>> parts;
  parts.reserve(pieces.size() + 2);
  parts.push_back(header.bytes());
  parts.insert(parts.end(), pieces.begin(), pieces.end());
  parts.push_back(footer.bytes());
  const auto path = snapshot_path(dir, epoch);
  publish_file_pieces(path, parts);
  return path;
}

std::vector<SnapshotInfo> list_snapshots(const std::filesystem::path& dir) {
  std::vector<SnapshotInfo> found;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return found;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    // Stray files — editor droppings, "snapshot-old.snap", orphaned
    // "*.snap.tmp" — must be skipped, never misparsed or thrown on: recovery
    // scans this directory after a crash, exactly when junk is most likely.
    if (name.size() <= kSnapshotPrefix.size() + kSnapshotSuffix.size() ||
        !name.starts_with(kSnapshotPrefix) || !name.ends_with(kSnapshotSuffix)) {
      continue;
    }
    const std::string_view digits(
        name.data() + kSnapshotPrefix.size(),
        name.size() - kSnapshotPrefix.size() - kSnapshotSuffix.size());
    if (std::any_of(digits.begin(), digits.end(),
                    [](unsigned char c) { return c < '0' || c > '9'; })) {
      continue;
    }
    std::uint64_t epoch = 0;
    const auto [ptr, parse] =
        std::from_chars(digits.data(), digits.data() + digits.size(), epoch);
    if (parse != std::errc{} || ptr != digits.data() + digits.size()) continue;
    found.push_back({entry.path(), epoch});
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.epoch < b.epoch; });
  return found;
}

LoadedSnapshot load_snapshot(const std::filesystem::path& path) {
  LoadedSnapshot loaded;
  loaded.file = MappedFile(path);
  if (loaded.file.size() < kHeaderBytes + kFooterBytes) {
    throw CorruptData("snapshot: file shorter than header + checksum");
  }
  const auto contents = loaded.file.map();
  io::Reader header{contents.first(kHeaderBytes)};
  if (header.u64() != kMagic) throw CorruptData("snapshot: bad magic");
  loaded.version = header.u32();
  if (loaded.version == 0 || loaded.version > kSnapshotFormatVersion) {
    throw CorruptData("snapshot: unsupported format version");
  }
  loaded.epoch = header.u64();
  const std::uint64_t payload_size = header.u64();
  if (payload_size != contents.size() - kHeaderBytes - kFooterBytes) {
    throw CorruptData("snapshot: payload size does not match file size");
  }

  const auto body = contents.first(contents.size() - kFooterBytes);
  io::Reader footer{contents.last(kFooterBytes)};
  if (crc32c_unmask(footer.u32()) != crc32c(body)) {
    throw CorruptData("snapshot: checksum mismatch");
  }
  loaded.payload = body.subspan(kHeaderBytes);
  return loaded;
}

std::optional<LoadedSnapshot> load_newest_valid(
    const std::filesystem::path& dir) {
  const auto snapshots = list_snapshots(dir);
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    try {
      return load_snapshot(it->path);
    } catch (const Error& e) {
      LARP_LOG_WARN("persist") << "skipping invalid snapshot "
                               << it->path.string() << ": " << e.what();
    }
  }
  return std::nullopt;
}

void retain_snapshots(const std::filesystem::path& dir, std::size_t keep) {
  if (keep == 0) keep = 1;
  const auto snapshots = list_snapshots(dir);
  // Count only snapshots that validate toward the retained set, so a corrupt
  // newest file never causes deletion of the fallback it shadows.
  std::size_t valid_kept = 0;
  std::vector<std::filesystem::path> removable;
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    if (valid_kept >= keep) {
      removable.push_back(it->path);
      continue;
    }
    try {
      (void)load_snapshot(it->path);
      ++valid_kept;
    } catch (const Error&) {
      // Invalid: neither retained nor trusted enough to delete siblings over.
    }
  }
  for (const auto& path : removable) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
}

SnapshotReceiver::SnapshotReceiver(std::filesystem::path dir)
    : dir_(std::move(dir)) {}

SnapshotReceiver::~SnapshotReceiver() { abandon(); }

bool SnapshotReceiver::add(std::uint64_t epoch, std::uint64_t total_bytes,
                           std::uint64_t offset,
                           std::span<const std::byte> data, bool last) {
  try {
    if (offset == 0) {
      abandon();
      ensure_directory(dir_);
      epoch_ = epoch;
      total_bytes_ = total_bytes;
      received_ = 0;
      tmp_ = snapshot_path(dir_, epoch).string() + ".tmp";
      // O_APPEND over a fresh file: an orphan of a crashed transfer goes.
      std::error_code ec;
      std::filesystem::remove(tmp_, ec);
      file_.open(tmp_);
    }
    if (tmp_.empty() || epoch != epoch_ || total_bytes != total_bytes_ ||
        offset != received_ || data.size() > total_bytes_ - received_) {
      throw CorruptData("snapshot transfer: chunk does not continue the file");
    }
    file_.append(data);
    received_ += data.size();
    if (!last) return false;
    if (received_ != total_bytes_) {
      throw CorruptData("snapshot transfer: last chunk leaves the file short");
    }
    file_.sync();
    file_.close();
    if (load_snapshot(tmp_).epoch != epoch_) {
      throw CorruptData("snapshot transfer: file holds another epoch");
    }
    rename_durably(tmp_, snapshot_path(dir_, epoch_));
    tmp_.clear();
    return true;
  } catch (...) {
    abandon();
    throw;
  }
}

void SnapshotReceiver::abandon() noexcept {
  file_.close();
  if (tmp_.empty()) return;
  std::error_code ec;
  std::filesystem::remove(tmp_, ec);
  tmp_.clear();
}

}  // namespace larp::persist
