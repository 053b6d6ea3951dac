// Tests for SnapshotReceiver, the follower half of a snapshot bootstrap,
// without sockets: a transfer publishes a file only when every chunk
// continues it and the whole file validates, and leaves no snapshot (and no
// temp file) behind otherwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "persist/file.hpp"
#include "persist/snapshot.hpp"

namespace larp::persist {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kChunk = 1000;

class SnapshotReceiverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("larp_snap_transfer_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    dir_ = root_ / "follower";
  }
  void TearDown() override { fs::remove_all(root_); }

  /// The bytes of a published snapshot file of epoch `epoch`, with a
  /// payload of `size` bytes derived from `seed`.
  std::vector<std::byte> snapshot_file(std::uint64_t epoch, std::size_t size,
                                       unsigned seed) {
    std::vector<std::byte> payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::byte>((i * 31 + seed) & 0xFFu);
    }
    return read_file(publish_snapshot(root_ / "leader", epoch, payload));
  }

  /// Feeds `file` to `rx` in kChunk-byte chunks, as a leader ships it.
  static bool ship(SnapshotReceiver& rx, std::uint64_t epoch,
                   std::span<const std::byte> file) {
    bool published = false;
    for (std::size_t offset = 0; offset < file.size(); offset += kChunk) {
      const std::size_t n = std::min(kChunk, file.size() - offset);
      published = rx.add(epoch, file.size(), offset, file.subspan(offset, n),
                         offset + n == file.size());
    }
    return published;
  }

  /// Names of every file left in the follower directory.
  [[nodiscard]] std::vector<std::string> leftovers() const {
    std::vector<std::string> names;
    if (!fs::exists(dir_)) return names;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      names.push_back(entry.path().filename().string());
    }
    return names;
  }

  fs::path root_;
  fs::path dir_;
};

TEST_F(SnapshotReceiverTest, CleanTransferPublishesAValidatedFile) {
  const auto file = snapshot_file(7, 4500, 1);
  SnapshotReceiver rx(dir_);
  EXPECT_TRUE(ship(rx, 7, file));

  const auto snapshots = list_snapshots(dir_);
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].epoch, 7u);
  EXPECT_EQ(snapshots[0].path, snapshot_path(dir_, 7));
  EXPECT_EQ(read_file(snapshots[0].path), file);
  EXPECT_EQ(load_snapshot(snapshots[0].path).epoch, 7u);
  EXPECT_EQ(leftovers(), std::vector<std::string>{
                             snapshot_path(dir_, 7).filename().string()});
}

TEST_F(SnapshotReceiverTest, BrokenTransfersPublishNothing) {
  const auto file = snapshot_file(7, 4500, 1);
  const std::span<const std::byte> bytes(file);
  const std::uint64_t total = file.size();
  struct Case {
    const char* name;
    std::function<void(SnapshotReceiver&)> run;
  };
  const std::vector<Case> cases = {
      {"flipped byte",
       [&](SnapshotReceiver& rx) {
         auto flipped = file;
         flipped[flipped.size() / 2] ^= std::byte{0x01};
         (void)ship(rx, 7, flipped);
       }},
      {"chunk at the wrong offset",
       [&](SnapshotReceiver& rx) {
         (void)rx.add(7, total, 0, bytes.first(kChunk), false);
         (void)rx.add(7, total, kChunk + 1, bytes.subspan(kChunk + 1, kChunk),
                      false);
       }},
      {"chunk before any transfer began",
       [&](SnapshotReceiver& rx) {
         (void)rx.add(7, total, kChunk, bytes.subspan(kChunk, kChunk), false);
       }},
      {"changed total_bytes",
       [&](SnapshotReceiver& rx) {
         (void)rx.add(7, total, 0, bytes.first(kChunk), false);
         (void)rx.add(7, total + 1, kChunk, bytes.subspan(kChunk, kChunk),
                      false);
       }},
      {"changed epoch",
       [&](SnapshotReceiver& rx) {
         (void)rx.add(7, total, 0, bytes.first(kChunk), false);
         (void)rx.add(8, total, kChunk, bytes.subspan(kChunk, kChunk), false);
       }},
      {"chunk past total_bytes",
       [&](SnapshotReceiver& rx) {
         (void)rx.add(7, kChunk + 10, 0, bytes.first(kChunk), false);
         (void)rx.add(7, kChunk + 10, kChunk, bytes.subspan(kChunk, 11), true);
       }},
      {"short last chunk",
       [&](SnapshotReceiver& rx) {
         (void)rx.add(7, total, 0, bytes.first(kChunk), false);
         (void)rx.add(7, total, kChunk, bytes.subspan(kChunk, kChunk), true);
       }},
      {"chunk epoch disagrees with the file header",
       [&](SnapshotReceiver& rx) { (void)ship(rx, 8, file); }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    fs::remove_all(dir_);
    {
      SnapshotReceiver rx(dir_);
      EXPECT_THROW(c.run(rx), CorruptData);
      // The failed transfer is gone at once, not only when `rx` is.
      EXPECT_TRUE(list_snapshots(dir_).empty());
      EXPECT_TRUE(leftovers().empty());
    }
    EXPECT_TRUE(leftovers().empty());
  }
}

TEST_F(SnapshotReceiverTest, UnfinishedTransferLeavesNothing) {
  const auto file = snapshot_file(7, 4500, 1);
  {
    SnapshotReceiver rx(dir_);
    EXPECT_FALSE(rx.add(7, file.size(), 0,
                        std::span<const std::byte>(file).first(kChunk), false));
  }
  EXPECT_TRUE(leftovers().empty());
}

TEST_F(SnapshotReceiverTest,
       RestartAtOffsetZeroPublishesOnlyTheSecondTransfer) {
  const auto first = snapshot_file(7, 4500, 1);
  const auto second = snapshot_file(9, 3200, 2);
  SnapshotReceiver rx(dir_);
  // The first transfer is cut off after two chunks...
  EXPECT_FALSE(rx.add(7, first.size(), 0,
                      std::span<const std::byte>(first).first(kChunk), false));
  EXPECT_FALSE(rx.add(7, first.size(), kChunk,
                      std::span<const std::byte>(first).subspan(kChunk, kChunk),
                      false));
  // ...and a new one starts over at offset 0.
  EXPECT_TRUE(ship(rx, 9, second));

  const auto snapshots = list_snapshots(dir_);
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].epoch, 9u);
  EXPECT_EQ(read_file(snapshots[0].path), second);
  EXPECT_EQ(leftovers(), std::vector<std::string>{
                             snapshot_path(dir_, 9).filename().string()});
}

}  // namespace
}  // namespace larp::persist
