#include "persist/wal.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "persist/crc32c.hpp"
#include "util/log.hpp"

namespace larp::persist {

namespace {

// "LARPWAL1" as a little-endian u64.
constexpr std::uint64_t kMagic = 0x314C415750524C41ull;
constexpr std::size_t kSegmentHeaderBytes = 8 + 4 + 4 + 8;
constexpr std::size_t kFrameHeaderBytes = 4 + 4;  // length + masked crc
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

std::filesystem::path segment_path(const std::filesystem::path& dir,
                                   std::uint32_t shard, std::uint64_t start_seq) {
  char name[48];
  std::snprintf(name, sizeof(name), "wal-%04u-%020llu.log", shard,
                static_cast<unsigned long long>(start_seq));
  return dir / name;
}

struct SegmentScan {
  std::uint64_t start_seq = 0;
  std::uint64_t next_seq = 0;     // after the last valid contiguous frame
  std::uint64_t valid_bytes = 0;  // file offset just past that frame
  bool clean = true;              // false: trailing torn/corrupt bytes exist
};

/// Walks a segment's frames, invoking fn(seq, payload) for each valid one in
/// order, stopping at the first torn or corrupt frame.  Sequence numbers
/// must be contiguous from the segment's start_seq — a gap is corruption.
/// Throws CorruptData only for an unusable header; frame damage is reported
/// via `clean` so callers recover the valid prefix.
template <typename Fn>
SegmentScan scan_segment(std::span<const std::byte> contents,
                         std::uint32_t shard, const Fn& fn) {
  if (contents.size() < kSegmentHeaderBytes) {
    throw CorruptData("wal: segment shorter than its header");
  }
  io::Reader header(contents.first(kSegmentHeaderBytes));
  if (header.u64() != kMagic) throw CorruptData("wal: bad segment magic");
  const std::uint32_t version = header.u32();
  if (version == 0 || version > kWalFormatVersion) {
    throw CorruptData("wal: unsupported segment version");
  }
  if (header.u32() != shard) throw CorruptData("wal: segment shard mismatch");

  SegmentScan scan;
  scan.start_seq = header.u64();
  scan.next_seq = scan.start_seq;
  scan.valid_bytes = kSegmentHeaderBytes;

  std::size_t offset = kSegmentHeaderBytes;
  while (offset < contents.size()) {
    if (contents.size() - offset < kFrameHeaderBytes) break;  // torn header
    io::Reader frame_header(contents.subspan(offset, kFrameHeaderBytes));
    const std::uint32_t length = frame_header.u32();
    const std::uint32_t stored_crc = crc32c_unmask(frame_header.u32());
    if (length < 8 || length > kMaxFrameBytes ||
        length > contents.size() - offset - kFrameHeaderBytes) {
      break;  // torn or corrupt length
    }
    const auto body = contents.subspan(offset + kFrameHeaderBytes, length);
    if (crc32c(body) != stored_crc) break;  // corrupt frame
    io::Reader body_reader(body);
    const std::uint64_t seq = body_reader.u64();
    if (seq != scan.next_seq) break;  // sequence hole: cannot trust onwards
    fn(seq, body.subspan(8));
    scan.next_seq = seq + 1;
    offset += kFrameHeaderBytes + length;
    scan.valid_bytes = offset;
  }
  scan.clean = (scan.valid_bytes == contents.size());
  return scan;
}

}  // namespace

std::vector<WalSegmentInfo> list_wal_segments(const std::filesystem::path& dir,
                                              std::uint32_t shard) {
  // %04u is a minimum width: shard ids >= 10000 widen the prefix, so the
  // start_seq digits must be located by the actual prefix length, not a
  // hardcoded offset.
  char prefix[24];
  const auto prefix_len = static_cast<std::size_t>(
      std::snprintf(prefix, sizeof(prefix), "wal-%04u-", shard));
  std::vector<WalSegmentInfo> found;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return found;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(prefix) || !name.ends_with(".log") ||
        name.size() < prefix_len + 4) {
      continue;
    }
    const std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - 4);
    std::uint64_t start_seq = 0;
    const auto [ptr, parse] =
        std::from_chars(digits.data(), digits.data() + digits.size(), start_seq);
    if (parse != std::errc{} || ptr != digits.data() + digits.size()) continue;
    found.push_back({entry.path(), start_seq});
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.start_seq < b.start_seq; });
  return found;
}

WalReplayReport replay_wal(const std::filesystem::path& dir, std::uint32_t shard,
                           std::uint64_t from_seq,
                           const std::function<void(const WalFrame&)>& fn) {
  WalReplayReport report;
  report.next_seq = 0;
  const auto segments = list_wal_segments(dir, shard);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    // Segments must themselves be contiguous: segment k starts where k-1's
    // valid frames ended.  A mismatch (missing file, mid-log damage) ends
    // the trustworthy prefix.
    if (i > 0 && segments[i].start_seq != report.next_seq) {
      report.truncated_tail = true;
      return report;
    }
    std::vector<std::byte> contents;
    SegmentScan scan;
    try {
      contents = read_file(segments[i].path);
      scan = scan_segment(contents, shard, [&](std::uint64_t seq,
                                               std::span<const std::byte> payload) {
        // A frame the callback rejects is the first one not applied: the
        // frames before it stay below next_seq, so repair keeps them.
        report.next_seq = seq;
        if (seq >= from_seq) {
          fn(WalFrame{seq, payload});
          ++report.frames_delivered;
        } else {
          ++report.frames_skipped;
        }
        report.next_seq = seq + 1;
      });
    } catch (const Error& e) {
      LARP_LOG_WARN("persist") << "wal replay stopped in segment "
                               << segments[i].path.string() << ": " << e.what();
      report.truncated_tail = true;
      return report;
    }
    // Invariant: a frameless segment (header only) still advances next_seq
    // to its start_seq, because scan.next_seq starts there.
    report.next_seq = scan.next_seq;
    if (!scan.clean) {
      report.truncated_tail = true;
      return report;
    }
  }
  return report;
}

WalTailer::WalTailer(std::filesystem::path dir, std::uint32_t shard,
                     std::uint64_t position)
    : dir_(std::move(dir)), shard_(shard), position_(position) {}

TailStatus WalTailer::poll(std::vector<WalFrame>& out, std::size_t max_bytes) {
  out.clear();
  const auto segments = list_wal_segments(dir_, shard_);
  if (segments.empty()) return TailStatus::kUpToDate;
  if (position_ < segments.front().start_seq) {
    return TailStatus::kNeedsBootstrap;
  }
  // The segment holding position_: the last one starting at or below it.
  std::size_t idx = 0;
  while (idx + 1 < segments.size() &&
         segments[idx + 1].start_seq <= position_) {
    ++idx;
  }
  // Where the valid frames read so far end: the next segment must start at
  // or below it.
  std::uint64_t next = position_;
  for (; idx < segments.size(); ++idx) {
    // A gap between segments below the write head is unreachable under the
    // contiguity invariant, and so is damage short of a segment's end that
    // a successor does not pick up: trust nothing past either.
    if (segments[idx].start_seq > next) return TailStatus::kCorrupt;
    try {
      contents_ = read_file(segments[idx].path);
    } catch (const IoError&) {
      // Pruned between the listing and the read; the next poll re-lists
      // (and reports kNeedsBootstrap if the position went with it).
      return TailStatus::kUpToDate;
    }
    if (contents_.size() < kSegmentHeaderBytes) {
      return TailStatus::kUpToDate;  // freshly rotated, header in flight
    }
    std::size_t bytes = 0;
    SegmentScan scan;
    try {
      scan = scan_segment(
          contents_, shard_,
          [&](std::uint64_t seq, std::span<const std::byte> payload) {
            if (seq < position_ || bytes >= max_bytes) return;
            out.push_back(WalFrame{seq, payload});
            bytes += payload.size();
          });
    } catch (const CorruptData&) {
      return TailStatus::kCorrupt;
    }
    if (scan.start_seq != segments[idx].start_seq) return TailStatus::kCorrupt;
    if (!out.empty()) {
      position_ = out.back().seq + 1;
      return TailStatus::kFrames;
    }
    // Nothing here at or past the position.  Past the newest segment's
    // valid frames lies either nothing or a tail still being written.
    next = std::max(next, scan.next_seq);
  }
  return TailStatus::kUpToDate;
}

void repair_wal(const std::filesystem::path& dir, std::uint32_t shard,
                std::uint64_t next_seq) {
  const auto segments = list_wal_segments(dir, shard);
  for (const auto& segment : segments) {
    if (segment.start_seq >= next_seq) {
      std::error_code ec;
      std::filesystem::remove(segment.path, ec);
      continue;
    }
    // Segment starts below the cut: keep its frames below next_seq.
    std::vector<std::byte> contents;
    try {
      contents = read_file(segment.path);
    } catch (const Error&) {
      std::error_code ec;
      std::filesystem::remove(segment.path, ec);
      continue;
    }
    std::uint64_t cut_bytes = kSegmentHeaderBytes;
    try {
      std::uint64_t offset_after = kSegmentHeaderBytes;
      const auto scan = scan_segment(
          contents, shard,
          [&](std::uint64_t seq, std::span<const std::byte> payload) {
            offset_after += kFrameHeaderBytes + 8 + payload.size();
            if (seq < next_seq) cut_bytes = offset_after;
          });
      (void)scan;
    } catch (const Error&) {
      std::error_code ec;
      std::filesystem::remove(segment.path, ec);
      continue;
    }
    if (cut_bytes < contents.size()) {
      AppendFile file;
      file.open(segment.path);
      file.truncate(cut_bytes);
      file.sync();
    }
  }
  sync_directory(dir);
}

WalWriter::WalWriter(std::filesystem::path dir, std::uint32_t shard,
                     WalConfig config, std::uint64_t expected_next_seq)
    : dir_(std::move(dir)),
      shard_(shard),
      config_(std::move(config)),
      clock_(config_.clock ? config_.clock
                           : [] { return std::chrono::steady_clock::now(); }) {
  if (config_.fsync_every_n == 0) config_.fsync_every_n = 1;
  ensure_directory(dir_);
  last_sync_ = now();

  const auto segments = list_wal_segments(dir_, shard_);
  if (segments.empty()) {
    next_seq_ = expected_next_seq == kAnySeq ? 0 : expected_next_seq;
    published_seq_ = durable_seq_ = next_seq_;
    open_segment(next_seq_);
    return;
  }

  // Adopt the newest segment: scan its valid prefix, truncate any torn
  // tail, and continue appending after the last durable frame.
  const auto& newest = segments.back();
  const auto contents = read_file(newest.path);
  const auto scan =
      scan_segment(contents, shard_, [](std::uint64_t, std::span<const std::byte>) {});
  next_seq_ = scan.next_seq;
  published_seq_ = durable_seq_ = next_seq_;
  if (expected_next_seq != kAnySeq && expected_next_seq != next_seq_) {
    throw CorruptData(
        "wal: directory position disagrees with the engine's replay "
        "watermark; refusing to fork the log");
  }
  file_.open(newest.path);
  if (!scan.clean) {
    LARP_LOG_WARN("persist") << "wal: truncating torn tail of "
                             << newest.path.string() << " at byte "
                             << scan.valid_bytes;
    file_.truncate(scan.valid_bytes);
    file_.sync();
  }
  segment_size_ = scan.valid_bytes;
  if (segment_size_ >= config_.segment_bytes) {
    file_.sync();
    open_segment(next_seq_);
  }
}

void WalWriter::open_segment(std::uint64_t start_seq) {
  io::Writer header;
  header.u64(kMagic);
  header.u32(kWalFormatVersion);
  header.u32(shard_);
  header.u64(start_seq);
  {
    // The fd swap must be invisible to a concurrent sync_published(): its
    // duplicate_handle() call happens under the same mutex, so it either
    // dups the outgoing descriptor (kept alive by the dup) or the new one.
    std::lock_guard lock(sync_mutex_);
    file_.open(segment_path(dir_, shard_, start_seq));
  }
  file_.append(header.bytes());
  segment_size_ = header.size();
  // Make the segment's existence durable before any frame relies on it.
  file_.sync();
  sync_directory(dir_);
}

std::uint64_t WalWriter::append(std::span<const std::byte> payload,
                                std::size_t weight) {
  const std::uint64_t seq = stage(payload, weight);
  commit();
  return seq;
}

std::uint64_t WalWriter::stage(std::span<const std::byte> payload,
                               std::size_t weight) {
  const std::uint64_t seq = next_seq_++;

  const std::size_t begin = frame_scratch_.size();
  const std::size_t total = kFrameHeaderBytes + 8 + payload.size();
  if (frame_scratch_.capacity() < begin + total) {
    frame_scratch_.reserve(begin + total);
  }
  const auto push_le = [&](auto v, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) {
      frame_scratch_.push_back(
          static_cast<std::byte>((static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFFu));
    }
  };
  push_le(static_cast<std::uint32_t>(8 + payload.size()), 4);
  push_le(std::uint32_t{0}, 4);  // crc slot, patched below
  push_le(seq, 8);
  frame_scratch_.insert(frame_scratch_.end(), payload.begin(), payload.end());
  const std::uint32_t crc = crc32c_mask(crc32c(
      std::span(frame_scratch_).subspan(begin + kFrameHeaderBytes)));
  for (std::size_t i = 0; i < 4; ++i) {
    frame_scratch_[begin + 4 + i] =
        static_cast<std::byte>((crc >> (8 * i)) & 0xFFu);
  }
  staged_sizes_.push_back(static_cast<std::uint32_t>(total));
  staged_weights_.push_back(
      static_cast<std::uint32_t>(std::max<std::size_t>(1, weight)));
  return seq;
}

void WalWriter::commit() {
  if (staged_sizes_.empty()) return;
  const std::span<const std::byte> staged(frame_scratch_);
  // Sequence number / record count after staged frame i (for opening the
  // next segment at the right start — and publishing the right record
  // watermark — when frame i crosses the rotation boundary).
  std::uint64_t seq_after = next_seq_ - staged_sizes_.size();
  std::uint64_t records_after = 0;
  {
    std::lock_guard lock(sync_mutex_);
    records_after = published_records_;
  }
  std::size_t pos = 0;        // bytes of the group walked so far
  std::size_t run_begin = 0;  // start of the run destined for this segment
  for (std::size_t i = 0; i < staged_sizes_.size(); ++i) {
    const std::uint32_t frame_bytes = staged_sizes_[i];
    pos += frame_bytes;
    segment_size_ += frame_bytes;
    ++seq_after;
    records_after += staged_weights_[i];
    if (segment_size_ >= config_.segment_bytes) {
      // Rotation boundary inside the group: flush the run ending with this
      // frame, make the completed segment durable, and continue the group in
      // a fresh segment starting at the next staged sequence — replay's
      // segment-contiguity check then holds however far a crash lets the
      // remainder get.  Rotation syncs inline even under Async (amortized
      // once per segment_bytes), preserving the invariant that only the
      // current segment holds non-durable bytes.
      file_.append(staged.subspan(run_begin, pos - run_begin));
      publish(seq_after, records_after);
      sync();
      open_segment(seq_after);
      run_begin = pos;
    }
  }
  if (pos > run_begin) {
    file_.append(staged.subspan(run_begin, pos - run_begin));
  }
  publish(next_seq_, records_after);
  frame_scratch_.clear();
  staged_sizes_.clear();
  staged_weights_.clear();
  // One policy decision for the whole group, which counts as its record
  // weight toward EveryN (records already synced by a mid-group rotation
  // excluded — the published/durable spread only covers the final run).
  maybe_sync();
}

void WalWriter::publish(std::uint64_t seq, std::uint64_t records) {
  std::lock_guard lock(sync_mutex_);
  published_seq_ = seq;
  published_records_ = records;
}

void WalWriter::maybe_sync() {
  switch (config_.fsync) {
    case FsyncPolicy::Always:
      // "Lose nothing" cannot be met by a background sync: Always stays
      // inline in both durability modes.
      sync();
      break;
    case FsyncPolicy::EveryN:
      if (config_.mode == DurabilityMode::Async) break;  // syncer's job
      if (unsynced_appends() >= config_.fsync_every_n) sync();
      break;
    case FsyncPolicy::Interval:
      if (config_.mode == DurabilityMode::Async) break;  // syncer's job
      if (now() - last_sync_time() >= config_.fsync_interval) sync();
      break;
  }
}

void WalWriter::sync() {
  // Appender-side: every byte handed to write(2) so far becomes durable.
  // published_seq_ cannot advance concurrently (the owner's lock serializes
  // commit() with us), so durable := published is exact.
  file_.sync();
  std::lock_guard lock(sync_mutex_);
  durable_seq_ = published_seq_;
  durable_records_ = published_records_;
  last_sync_ = now();
}

std::uint64_t WalWriter::flush() {
  sync();
  return durable_seq();
}

std::uint64_t WalWriter::sync_published() {
  int fd = -1;
  std::uint64_t target = 0;
  std::uint64_t target_records = 0;
  {
    std::lock_guard lock(sync_mutex_);
    target = published_seq_;
    target_records = published_records_;
    if (durable_seq_ >= target) return durable_seq_;
    fd = file_.duplicate_handle();
  }
  // The fdatasync runs outside sync_mutex_ so commit()'s publish() and even
  // a rotation never wait on it.  The dup'd descriptor shares the open file
  // description of whatever segment was current when `target` was read; all
  // frames below `target` live either in that file or in already-synced
  // older segments (rotation syncs before switching), so syncing it makes
  // everything up to `target` durable.
  try {
    sync_handle(fd);
  } catch (...) {
    close_handle(fd);
    throw;
  }
  close_handle(fd);
  std::lock_guard lock(sync_mutex_);
  // max(): an inline sync() may have advanced the watermark past our target
  // while we were in fdatasync.
  durable_seq_ = std::max(durable_seq_, target);
  durable_records_ = std::max(durable_records_, target_records);
  last_sync_ = now();
  return durable_seq_;
}

bool WalWriter::sync_if_due() {
  if (config_.fsync != FsyncPolicy::Interval ||
      config_.mode == DurabilityMode::Async || unsynced_appends() == 0) {
    return false;
  }
  if (now() - last_sync_time() < config_.fsync_interval) return false;
  sync();
  return true;
}

std::uint64_t WalWriter::published_seq() const {
  std::lock_guard lock(sync_mutex_);
  return published_seq_;
}

std::uint64_t WalWriter::durable_seq() const {
  std::lock_guard lock(sync_mutex_);
  return durable_seq_;
}

std::chrono::steady_clock::time_point WalWriter::last_sync_time() const {
  std::lock_guard lock(sync_mutex_);
  return last_sync_;
}

std::size_t WalWriter::unsynced_appends() const {
  std::lock_guard lock(sync_mutex_);
  return static_cast<std::size_t>(published_records_ - durable_records_);
}

void WalWriter::prune_below(std::uint64_t min_seq) {
  const auto segments = list_wal_segments(dir_, shard_);
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    // A segment is removable when the NEXT segment starts at or below
    // min_seq: every frame in it is then older than the retention point.
    if (segments[i + 1].start_seq <= min_seq &&
        segments[i].path != file_.path()) {
      std::error_code ec;
      std::filesystem::remove(segments[i].path, ec);
    }
  }
}

}  // namespace larp::persist
