// Per-shard append-only write-ahead log.
//
// Each engine shard owns one logical log: an ordered sequence of frames,
// split across segment files for bounded recovery reads and cheap garbage
// collection.  Segment naming:
//
//   wal-<shard, 4 digits>-<start_seq, 20 digits>.log
//
// Segment file layout:
//   [ magic u64 = "LARPWAL1" ][ version u32 ][ shard u32 ][ start_seq u64 ]
//   frame*
//
// Frame layout (all little-endian):
//   [ length u32 ]        -- byte count of seq + payload (i.e. 8 + payload)
//   [ crc    u32 ]        -- masked CRC32C over the seq + payload bytes
//   [ seq    u64 ]        -- this frame's log sequence number
//   [ payload bytes ... ]
//
// Durability policy (WalConfig::fsync):
//   * Always  — fdatasync after every append (lose nothing, pay a sync per
//               record);
//   * EveryN  — fdatasync after every n-th append (lose at most n-1 records);
//   * Interval— fdatasync when `interval` has elapsed since the last sync
//               (checked on append/commit; an idle writer needs a periodic
//               sync_if_due() tick to keep the loss window bounded).
//
// Durability mode (WalConfig::mode):
//   * Sync  — the policy runs inline on commit(), as described above;
//   * Async — commit() only *publishes* its frames (one write(2), no sync);
//             a background WalSyncer calls sync_published() to move the
//             durable watermark forward on a backlog/deadline policy.  The
//             appender is never blocked behind an fdatasync (except at the
//             rare segment rotation), at the price of a loss window of up to
//             backlog_frames + one in-flight group, time-bounded by the
//             syncer deadline.  FsyncPolicy::Always ignores Async and stays
//             inline — "lose nothing" cannot be met by a background sync.
//
// The writer tracks two watermarks for this split:
//   published_seq — frames handed to write(2) by commit() (in page cache);
//   durable_seq   — frames covered by a completed fdatasync.
// Only the current segment ever holds non-durable bytes: rotation syncs the
// outgoing segment before switching, so one fdatasync of the current file
// always moves durable_seq all the way to the published watermark.
//
// Group commit: stage() encodes frames into an in-memory group and commit()
// flushes the whole group with one write per segment run plus one policy
// sync decision (a B-frame group counts as B appends toward EveryN).  The
// serving engine stages one group per (shard, batch) under the shard lock,
// paying one syscall per shard per batched call instead of one per frame.
//
// Recovery contract: replay() delivers the longest checksum-valid prefix of
// the log at or past `from_seq` and stops at the first torn or corrupt
// frame — bytes beyond a bad frame are unreachable by construction, because
// sequence numbers past a hole cannot be trusted.  WalWriter::open()
// truncates a torn tail off the newest segment so appends continue from the
// last durable frame.
//
// Readers: replay_wal(), repair_wal(), the writer's open and the WalTailer
// all parse segments with one scanner (wal.cpp), so this file is the only
// code that knows the segment and frame layout.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "persist/file.hpp"
#include "persist/io.hpp"

namespace larp::persist {

inline constexpr std::uint32_t kWalFormatVersion = 1;

enum class FsyncPolicy : std::uint8_t { Always, EveryN, Interval };

/// Sync: the fsync policy runs inline on commit().  Async: commit() never
/// syncs (FsyncPolicy::Always excepted); a WalSyncer thread does.
enum class DurabilityMode : std::uint8_t { Sync, Async };

/// Injectable time source for the Interval policy and the syncer deadline.
/// Null means std::chrono::steady_clock::now.  A test clock must be safe to
/// call from two threads at once (e.g. read an atomic tick counter) — the
/// writer calls it under the shard lock, the syncer from its own thread.
using WalClock = std::function<std::chrono::steady_clock::time_point()>;

struct WalConfig {
  /// Rotate to a new segment once the current one exceeds this many bytes.
  std::size_t segment_bytes = 4u << 20;
  FsyncPolicy fsync = FsyncPolicy::EveryN;
  /// FsyncPolicy::EveryN: sync after every n-th append (n >= 1).
  std::size_t fsync_every_n = 64;
  /// FsyncPolicy::Interval: sync when this much time elapsed since the last.
  std::chrono::milliseconds fsync_interval{50};
  /// Inline (Sync) or background (Async) execution of the fsync policy.
  DurabilityMode mode = DurabilityMode::Sync;
  /// Time source override for tests; null = steady_clock.
  WalClock clock{};
};

/// Appender for one shard's log.  The append surface (append/stage/commit/
/// sync/flush/prune_below) is not internally synchronized: the owning
/// shard's mutex serializes it, matching the engine's locking contract.
/// The watermark surface (published_seq/durable_seq/unsynced_appends/
/// last_sync_time/sync_published) IS internally synchronized so a WalSyncer
/// thread can run it concurrently with the appender — sync_published()
/// fdatasyncs through a dup(2)'d descriptor and never touches appender
/// state, so the serving thread is never blocked behind a background sync.
class WalWriter {
 public:
  /// Opens the shard's log in `dir` (created if absent), repairs a torn tail
  /// on the newest segment, and positions the writer at the next sequence
  /// number after the last valid frame.  `expected_next_seq` (when not
  /// npos-like ~0) must match that position — the engine passes its replay
  /// watermark so an inconsistent directory fails loudly instead of forking
  /// the log.
  WalWriter(std::filesystem::path dir, std::uint32_t shard, WalConfig config,
            std::uint64_t expected_next_seq = kAnySeq);

  static constexpr std::uint64_t kAnySeq = ~0ull;

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one frame; returns its sequence number.  Durability follows the
  /// configured fsync policy.  Steady-state appends reuse the frame buffer —
  /// no heap allocation once its capacity is established.  Equivalent to
  /// stage() + commit() of a one-frame group.
  std::uint64_t append(std::span<const std::byte> payload,
                       std::size_t weight = 1);

  /// Group commit, part 1: encodes one frame into the group buffer and
  /// assigns its sequence number WITHOUT writing anything.  Staged frames
  /// reach the file only at the next commit(); callers must commit before
  /// releasing whatever lock serializes this writer, or the staged suffix is
  /// silently dropped (never half-written — nothing hit the file).
  ///
  /// `weight` is the number of LOGICAL RECORDS the frame carries (>= 1): a
  /// compressed block frame packing a whole batch weighs its op count, so
  /// the EveryN policy and the async syncer's backlog trigger keep counting
  /// records — the loss-window guarantee ("lose at most n-1 records") is
  /// independent of how many records share a frame.
  std::uint64_t stage(std::span<const std::byte> payload,
                      std::size_t weight = 1);

  /// Group commit, part 2: writes every staged frame with one append per
  /// segment run and applies ONE policy-driven sync decision for the whole
  /// group (the group counts as its frame count toward EveryN).  A group
  /// that crosses the rotation boundary is split there — frames up to the
  /// boundary are flushed and synced into the old segment, the rest open the
  /// next one — so the replay contiguity invariant (segment k+1 starts where
  /// k's valid frames end) holds for any crash point.  No-op when nothing is
  /// staged.
  void commit();

  /// Forces buffered frames durable regardless of policy.  Appender-side
  /// (runs under the owner's serialization).
  void sync();

  /// sync() and return the durable watermark — "block until everything
  /// committed so far is durable".  snapshot() and shutdown use this.
  std::uint64_t flush();

  /// Applies a due FsyncPolicy::Interval sync on an idle writer.  The policy
  /// is otherwise only evaluated on the next append, so a writer that goes
  /// idle would hold unsynced frames indefinitely — an unbounded loss
  /// window.  Call this from a maintenance tick; returns true when a sync
  /// was performed.  No-op (false) for other policies, under
  /// DurabilityMode::Async (the syncer owns the deadline there), when
  /// nothing is unsynced, or when the interval has not yet elapsed.
  bool sync_if_due();

  /// Syncer-side: makes every frame published at the moment of the call
  /// durable, through a dup(2)'d descriptor, WITHOUT the owner's lock — the
  /// appender keeps committing (and may even rotate segments) while the
  /// fdatasync runs.  Returns the new durable watermark.  Safe to call from
  /// exactly one syncer thread concurrently with the appender thread.
  std::uint64_t sync_published();

  /// Sequence number just past the last frame handed to write(2).
  [[nodiscard]] std::uint64_t published_seq() const;
  /// Sequence number just past the last frame covered by an fdatasync.
  [[nodiscard]] std::uint64_t durable_seq() const;
  /// When the durable watermark last advanced (injected-clock time).
  [[nodiscard]] std::chrono::steady_clock::time_point last_sync_time() const;

  /// Logical records (frame weights) published but not yet durable (0 =
  /// everything durable).  Staged frames of an uncommitted group are not
  /// counted — they never reached write(2).
  [[nodiscard]] std::size_t unsynced_appends() const;

  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  [[nodiscard]] const std::filesystem::path& dir() const noexcept { return dir_; }

  /// Deletes segments whose every frame is below `min_seq` (already covered
  /// by a retained snapshot on every recovery path).
  void prune_below(std::uint64_t min_seq);

 private:
  void open_segment(std::uint64_t start_seq);
  void publish(std::uint64_t seq, std::uint64_t records);
  void maybe_sync();
  [[nodiscard]] std::chrono::steady_clock::time_point now() const {
    return clock_();
  }

  std::filesystem::path dir_;
  std::uint32_t shard_;
  WalConfig config_;
  WalClock clock_;
  AppendFile file_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t segment_size_ = 0;
  // Watermark state shared with the syncer thread.  sync_mutex_ also covers
  // the fd handoff at segment rotation, so duplicate_handle() never races
  // the AppendFile::open() that replaces the descriptor.
  mutable std::mutex sync_mutex_;
  std::uint64_t published_seq_ = 0;
  std::uint64_t durable_seq_ = 0;
  // Record-weighted watermarks backing unsynced_appends(): monotone counts
  // of logical records staged since open, published and made durable.  With
  // one-record frames they track the seq watermarks exactly; block frames
  // spread them apart.
  std::uint64_t published_records_ = 0;
  std::uint64_t durable_records_ = 0;
  std::chrono::steady_clock::time_point last_sync_{};
  // Staged-group state: frame_scratch_ holds the concatenated encoded frames
  // of the open group, staged_sizes_ their individual byte counts and
  // staged_weights_ their record counts (so commit can split the group — and
  // its record accounting — at a segment-rotation boundary).  The buffers
  // keep their capacity across groups — steady-state batches allocate
  // nothing.
  std::vector<std::byte> frame_scratch_;
  std::vector<std::uint32_t> staged_sizes_;
  std::vector<std::uint32_t> staged_weights_;
};

/// One recovered frame.  `payload` borrows the reader's buffer: valid during
/// the replay_wal() callback, or until the WalTailer's next poll().
struct WalFrame {
  std::uint64_t seq = 0;
  std::span<const std::byte> payload;
};

/// Statistics of one replay pass.
struct WalReplayReport {
  std::uint64_t frames_delivered = 0;   // callbacks invoked (seq >= from_seq)
  std::uint64_t frames_skipped = 0;     // valid frames below from_seq
  std::uint64_t next_seq = 0;           // first frame not applied: after the
                                        // last valid frame, or the frame `fn`
                                        // threw on
  bool truncated_tail = false;          // stopped at a torn/corrupt frame
};

/// Replays shard `shard`'s log from `dir`, invoking `fn` for every valid
/// frame with seq >= from_seq, in sequence order.  Stops at the first
/// invalid frame (torn tail or corruption) — the checksum-valid prefix rule —
/// or at the first frame `fn` throws an Error on, which is reported
/// like corruption: truncated_tail, with next_seq at that frame.
WalReplayReport replay_wal(const std::filesystem::path& dir, std::uint32_t shard,
                           std::uint64_t from_seq,
                           const std::function<void(const WalFrame&)>& fn);

enum class TailStatus {
  kFrames,          // >= 1 frame delivered
  kUpToDate,        // nothing committed past the position yet
  kNeedsBootstrap,  // the position predates the oldest retained segment
  kCorrupt,         // invalid frame mid-sequence (a successor segment exists)
};

/// Incremental reader over one shard's segment files, for a log that a
/// WalWriter may still be appending to: it shares nothing with the writer
/// but the files, so a caller (the replication leader) never takes a shard
/// lock.  Against a live writer it follows the recovery rules above:
///   * a frame is trusted only past the full length+CRC+contiguity check,
///     so a torn tail (an append in flight, or a crash) reads as "no more
///     frames yet" — the tailer holds its position and re-reads on the next
///     poll, which also makes a repair_wal() + rewrite at the same offset
///     seamless;
///   * an invalid frame is corruption only when a successor segment exists,
///     because rotation happens exactly at the end of a segment's valid
///     frames.
class WalTailer {
 public:
  WalTailer(std::filesystem::path dir, std::uint32_t shard,
            std::uint64_t position);

  /// Reads forward from position(), replacing `out` with the validated
  /// frames of ONE segment until `max_bytes` of payload have accumulated or
  /// the segment ends.  Every payload borrows the tailer's segment buffer,
  /// valid until the next poll(); a caller loops until kUpToDate, so a
  /// rotation costs it one more poll.  On kFrames the position has advanced
  /// past the delivered frames; on every other status it is unchanged.
  TailStatus poll(std::vector<WalFrame>& out, std::size_t max_bytes);

  /// Next sequence number poll() will deliver.
  [[nodiscard]] std::uint64_t position() const noexcept { return position_; }

 private:
  std::filesystem::path dir_;
  std::uint32_t shard_;
  std::uint64_t position_;
  std::vector<std::byte> contents_;  // the segment the last poll read
};

/// Physically truncates shard `shard`'s log so that `next_seq` is the next
/// sequence number a writer will assign: deletes segments starting at or
/// past `next_seq`, and cuts the segment containing it back to its valid
/// prefix below `next_seq`.  Recovery calls this after a replay stopped at
/// a corrupt frame, discarding the untrustworthy suffix for good.
void repair_wal(const std::filesystem::path& dir, std::uint32_t shard,
                std::uint64_t next_seq);

/// Segment files of one shard in `dir`, ascending start_seq.
struct WalSegmentInfo {
  std::filesystem::path path;
  std::uint64_t start_seq = 0;
};
[[nodiscard]] std::vector<WalSegmentInfo> list_wal_segments(
    const std::filesystem::path& dir, std::uint32_t shard);

}  // namespace larp::persist
