// replication::log — the position model replication is built on.
//
// A *position* is, per shard, the next WAL sequence number an engine expects
// (exactly WalWriter::next_seq()).  Positions are directly comparable across
// a leader/follower pair because a follower's state mutates only through
// replicate_frames(): its log is a byte copy of the leader's, so "follower
// position >= leader position" means the follower has applied everything the
// leader had published at that instant.  A position table (one u64 per
// shard) travels in every Hello/Ack/Heartbeat frame.
//
// The leader reads a shard's committed frames with persist::WalTailer, which
// parses the segment files with the same scanner as recovery replay and
// returns one segment's frames per poll; the names below are its
// replication-side spellings.
#pragma once

#include <cstdint>
#include <span>

#include "persist/wal.hpp"

namespace larp::replication {

using persist::TailStatus;
using persist::WalTailer;
/// One tailed WAL frame; its payload is valid until the tailer's next poll.
using TailedFrame = persist::WalFrame;

/// True when every shard of `a` is at or past `b` — "a has applied
/// everything b had".  Tables of different sizes never cover each other.
[[nodiscard]] bool covers(std::span<const std::uint64_t> a,
                          std::span<const std::uint64_t> b);

/// The global commit watermark of a position table: total frames committed
/// across all shards.  Monotone under replication (positions only advance),
/// so leader minus follower is a scalar lag gauge in frames.
[[nodiscard]] std::uint64_t total_frames(std::span<const std::uint64_t> p);

}  // namespace larp::replication
