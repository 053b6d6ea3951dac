// Tests for the versioned, checksummed snapshot files: atomic publication,
// total validation, fallback past corrupt files, and retention.
#include "persist/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "persist/crc32c.hpp"
#include "persist/file.hpp"

namespace larp::persist {
namespace {

namespace fs = std::filesystem;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("larp_snap_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::vector<std::byte> payload(const std::string& s) {
    std::vector<std::byte> out(s.size());
    std::memcpy(out.data(), s.data(), s.size());
    return out;
  }

  static std::string text(std::span<const std::byte> bytes) {
    return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
  }

  static void flip_bit(const fs::path& path, std::streamoff at) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(at);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(at);
    f.write(&byte, 1);
  }

  fs::path dir_;
};

TEST_F(SnapshotTest, PublishLoadRoundTrip) {
  const auto path = publish_snapshot(dir_, 7, payload("engine state"));
  const auto loaded = load_snapshot(path);
  EXPECT_EQ(loaded.epoch, 7u);
  EXPECT_EQ(loaded.version, kSnapshotFormatVersion);
  EXPECT_EQ(text(loaded.payload), "engine state");
}

TEST_F(SnapshotTest, EmptyPayloadIsValid) {
  const auto path = publish_snapshot(dir_, 1, {});
  EXPECT_TRUE(load_snapshot(path).payload.empty());
}

TEST_F(SnapshotTest, ListSortsByEpochAndIgnoresForeignFiles) {
  publish_snapshot(dir_, 3, payload("c"));
  publish_snapshot(dir_, 1, payload("a"));
  publish_snapshot(dir_, 2, payload("b"));
  std::ofstream(dir_ / "snapshot-x.snap") << "not a snapshot name";
  std::ofstream(dir_ / "readme.txt") << "ignore me";
  std::ofstream(dir_ / "snapshot-00000000000000000009.snap.tmp") << "torn tmp";
  const auto infos = list_snapshots(dir_);
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].epoch, 1u);
  EXPECT_EQ(infos[1].epoch, 2u);
  EXPECT_EQ(infos[2].epoch, 3u);
}

TEST_F(SnapshotTest, ListOfMissingDirectoryIsEmpty) {
  EXPECT_TRUE(list_snapshots(dir_ / "never_created").empty());
}

TEST_F(SnapshotTest, ListSkipsStrayNonNumericNames) {
  // Regression for the hardcoded substr(9, ...) parse: every name here
  // shares the snapshot prefix and/or suffix but is NOT a snapshot, and the
  // digits must be validated as digits end to end (mixed, signed, empty, or
  // overlong numerals all disqualify — with no throw on any of them).
  publish_snapshot(dir_, 5, payload("real"));
  std::ofstream(dir_ / "snapshot-.snap") << "empty digits";
  std::ofstream(dir_ / "snapshot-12ab34.snap") << "mixed digits";
  std::ofstream(dir_ / "snapshot--5.snap") << "signed";
  std::ofstream(dir_ / "snapshot-+7.snap") << "signed";
  std::ofstream(dir_ / "snapshot-backup.snap") << "words";
  std::ofstream(dir_ / "snapshot-99999999999999999999999999.snap")
      << "overflows u64";
  std::ofstream(dir_ / "snapshot") << "prefix only, no suffix";
  std::ofstream(dir_ / ".snap") << "suffix only";
  const auto infos = list_snapshots(dir_);
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].epoch, 5u);
  // The stray files must not break recovery either: newest-valid still finds
  // the real snapshot.
  const auto loaded = load_newest_valid(dir_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 5u);
}

// Validation is total: a flip anywhere — header, payload, or trailing
// checksum — must reject the file.
TEST_F(SnapshotTest, AnySingleBitFlipRejects) {
  const auto path =
      publish_snapshot(dir_, 1, payload("sensitive model coefficients"));
  const auto size = static_cast<std::streamoff>(fs::file_size(path));
  for (std::streamoff at = 0; at < size; at += 7) {
    flip_bit(path, at);
    EXPECT_THROW((void)load_snapshot(path), CorruptData) << "offset " << at;
    flip_bit(path, at);  // restore
  }
  EXPECT_NO_THROW((void)load_snapshot(path));
}

TEST_F(SnapshotTest, TruncatedFileRejects) {
  const auto path = publish_snapshot(dir_, 1, payload("some payload"));
  fs::resize_file(path, fs::file_size(path) - 2);
  EXPECT_THROW((void)load_snapshot(path), CorruptData);
}

TEST_F(SnapshotTest, NewestValidFallsBackPastCorruption) {
  publish_snapshot(dir_, 1, payload("oldest"));
  publish_snapshot(dir_, 2, payload("middle"));
  const auto newest = publish_snapshot(dir_, 3, payload("newest"));

  auto loaded = load_newest_valid(dir_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 3u);

  // Corrupt the newest: recovery silently falls back one epoch.
  flip_bit(newest, static_cast<std::streamoff>(fs::file_size(newest) / 2));
  loaded = load_newest_valid(dir_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 2u);
  EXPECT_EQ(text(loaded->payload), "middle");
}

TEST_F(SnapshotTest, NewestValidIsEmptyWhenAllCorrupt) {
  const auto a = publish_snapshot(dir_, 1, payload("a"));
  const auto b = publish_snapshot(dir_, 2, payload("b"));
  flip_bit(a, 4);
  flip_bit(b, 4);
  EXPECT_FALSE(load_newest_valid(dir_).has_value());
  EXPECT_FALSE(load_newest_valid(dir_ / "missing").has_value());
}

// A crash between temp write and rename leaves a .tmp orphan; it must be
// invisible to every reader.
TEST_F(SnapshotTest, PartialTempFileIsIgnored) {
  publish_snapshot(dir_, 5, payload("good"));
  std::ofstream(dir_ / "snapshot-00000000000000000006.snap.tmp",
                std::ios::binary)
      << "half-written future snapshot";
  const auto infos = list_snapshots(dir_);
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].epoch, 5u);
  const auto loaded = load_newest_valid(dir_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 5u);
}

TEST_F(SnapshotTest, RetainKeepsNewestValidating) {
  for (std::uint64_t e = 1; e <= 5; ++e) {
    publish_snapshot(dir_, e, payload("epoch " + std::to_string(e)));
  }
  retain_snapshots(dir_, 2);
  const auto infos = list_snapshots(dir_);
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].epoch, 4u);
  EXPECT_EQ(infos[1].epoch, 5u);
}

// Corrupt files do not count toward the retained set — otherwise two flipped
// bits could erase every restorable snapshot.
TEST_F(SnapshotTest, RetainDoesNotCountCorruptFiles) {
  publish_snapshot(dir_, 1, payload("good old"));
  const auto b = publish_snapshot(dir_, 2, payload("bad"));
  const auto c = publish_snapshot(dir_, 3, payload("bad too"));
  flip_bit(b, 6);
  flip_bit(c, 6);
  retain_snapshots(dir_, 2);
  const auto loaded = load_newest_valid(dir_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
}

// -- format evolution -------------------------------------------------------

// A golden v1 snapshot committed to the repo must load forever: any change
// to the container layout either bumps the format version (and keeps a v1
// reader) or it is a corruption bug this test catches before release.
TEST_F(SnapshotTest, GoldenV1FixtureStillLoads) {
  const fs::path golden =
      fs::path(LARP_PERSIST_TESTDATA_DIR) / "golden-v1.snap";
  ASSERT_TRUE(fs::exists(golden)) << "missing committed fixture " << golden;
  const auto loaded = load_snapshot(golden);
  EXPECT_EQ(loaded.version, 1u);
  EXPECT_EQ(loaded.epoch, 42u);
  EXPECT_EQ(text(loaded.payload),
            "LARPredictor golden snapshot payload (format v1)\n");
}

// A snapshot from a FUTURE format version must be rejected by the version
// gate specifically — the file below is structurally perfect (valid magic,
// size, recomputed checksum) except for version = current + 1.
TEST_F(SnapshotTest, FutureFormatVersionRejectsWithClearError) {
  const auto path = publish_snapshot(dir_, 1, payload("from the future"));
  auto contents = read_file(path);
  const std::uint32_t future = kSnapshotFormatVersion + 1;
  for (std::size_t i = 0; i < 4; ++i) {  // version u32 sits after the magic
    contents[8 + i] = static_cast<std::byte>((future >> (8 * i)) & 0xFFu);
  }
  const auto body = std::span(contents).first(contents.size() - 4);
  const std::uint32_t crc = crc32c_mask(crc32c(body));
  for (std::size_t i = 0; i < 4; ++i) {
    contents[contents.size() - 4 + i] =
        static_cast<std::byte>((crc >> (8 * i)) & 0xFFu);
  }
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(contents.data()),
            static_cast<std::streamsize>(contents.size()));
  }
  try {
    (void)load_snapshot(path);
    FAIL() << "a future-version snapshot must not load";
  } catch (const CorruptData& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << "rejection should name the version gate, got: " << e.what();
  }
}

TEST_F(SnapshotTest, PublicationIsAtomicOverExisting) {
  publish_snapshot(dir_, 9, payload("first"));
  publish_snapshot(dir_, 9, payload("second"));  // overwrite same epoch
  const auto loaded = load_newest_valid(dir_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(text(loaded->payload), "second");
  // No temp orphan left behind on the happy path.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp");
  }
}

}  // namespace
}  // namespace larp::persist
