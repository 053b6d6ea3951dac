// Tests for the fork-join thread pool.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace larp {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  pool.parallel_for(7, 3, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 37) throw std::logic_error("bad index");
                        }),
      std::logic_error);
}

TEST(ThreadPool, ParallelForSurvivesExceptionAndStaysUsable) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(0, 10, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(0, 50, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForFewerIterationsThanChunkSlots) {
  // total < size()*4 requested chunks: every index must run exactly once and
  // the call must return (no lost completion credit for skipped slots).
  ThreadPool pool(8);
  for (std::size_t total : {1u, 2u, 3u, 5u, 7u}) {
    std::vector<std::atomic<int>> hits(total);
    pool.parallel_for(0, total, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, ParallelForTailChunksPastEnd) {
  // Ceil-division overshoot regression: with 2 workers (8 chunk slots) and
  // 10 iterations, chunk_size is 2, so slots 5..7 start at or past `end`.
  // They used to submit anyway; now they must neither run fn out of range
  // nor deadlock the completion count.  Offsets exercise begin != 0.
  ThreadPool pool(2);
  for (std::size_t begin : {0u, 5u, 123u}) {
    const std::size_t total = 10;
    std::vector<std::atomic<int>> hits(total);
    pool.parallel_for(begin, begin + total, [&](std::size_t i) {
      ASSERT_GE(i, begin);
      ASSERT_LT(i, begin + total);
      hits[i - begin].fetch_add(1);
    });
    for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

// Many tiny ranges from one caller, then from two at once: each call's
// completion must not touch the caller's frame once the caller may return
// (the stack slot is reused by the next call).  Run under TSan in CI.
TEST(ThreadPool, ManyTinyCallsFromOneAndTwoCallers) {
  ThreadPool pool(2);
  const auto drive = [&pool] {
    for (int call = 0; call < 20000; ++call) {
      std::array<int, 3> hits{};
      pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
      for (int h : hits) ASSERT_EQ(h, 1);
    }
  };
  drive();
  std::thread other(drive);
  drive();
  other.join();
}

TEST(ThreadPool, ConcurrentCallersSeeEveryIndexAndTheirOwnException) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  const auto drive = [&pool](const std::string& name) {
    for (int call = 0; call < 300; ++call) {
      std::vector<std::atomic<int>> hits(64);
      try {
        pool.parallel_for(0, hits.size(), [&](std::size_t i) {
          ++hits[i];
          if (i % 16 == 5) throw std::runtime_error(name);
        });
        ADD_FAILURE() << name << ": no exception";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(e.what(), name);
      }
      for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << name;
    }
  };
  std::thread other(drive, "other");
  drive("main");
  other.join();
}

TEST(ThreadPool, PoolOfOneRunsOnTheCallingThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::thread::id> ran_on(16);
  pool.parallel_for(0, ran_on.size(),
                    [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
}

// The work, and the memory it allocates, stays on the pool's own threads.
TEST(ThreadPool, ForkedRangeRunsOnlyOnWorkers) {
  ThreadPool pool(2);
  std::vector<std::thread::id> ran_on(64);
  pool.parallel_for(0, ran_on.size(),
                    [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const auto& id : ran_on) EXPECT_NE(id, std::this_thread::get_id());
}

TEST(ThreadPool, DestroyRightAfterCallReturnsIsClean) {
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    {
      ThreadPool pool(3);
      pool.parallel_for(0, 8, [&](std::size_t) { ++count; });
    }
    ASSERT_EQ(count.load(), 8);
  }
}

TEST(ParallelMap, CollectsResultsInOrder) {
  const auto results = parallel_map(64, [](std::size_t i) {
    return static_cast<int>(i) * 3;
  });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i) * 3);
  }
}

TEST(ParallelMap, SingleElementRunsInline) {
  const auto results = parallel_map(1, [](std::size_t) { return 7; });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 7);
}

TEST(ParallelMap, ZeroElements) {
  const auto results = parallel_map(0, [](std::size_t) { return 1; });
  EXPECT_TRUE(results.empty());
}

TEST(ThreadPool, DeterministicWorkWithSplitRngs) {
  // The canonical usage pattern: per-task private RNG streams make parallel
  // results independent of scheduling.
  const auto run = [] {
    Rng parent(2024);
    return parallel_map(16, [&](std::size_t i) {
      Rng rng = parent.split(i);
      double acc = 0.0;
      for (int j = 0; j < 100; ++j) acc += rng.uniform();
      return acc;
    });
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace larp
