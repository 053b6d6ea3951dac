// Fork-join thread pool behind the engine's batched observe/predict fan-out
// and the offline benches' parallel_map.
//
// parallel_for publishes a job, the workers claim single indices from a
// shared counter, and the caller returns once every index is claimed and
// every worker that joined has left.  All completion state lives in the
// pool and changes only under its mutex, so no worker touches the caller's
// frame after the caller may return.  The body is passed by reference, so a
// call allocates nothing.  The caller waits rather than claiming indices, so
// the work and the memory it allocates stay on the pool's threads whichever
// thread calls (DESIGN.md §5 says why that matters).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace larp {

class ThreadPool {
 public:
  /// A pool of `threads` workers; 0 means std::thread::hardware_concurrency().
  /// A pool of 1 starts no thread and runs everything on the calling thread.
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins the workers.  No parallel_for may be running.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallelism: the number of workers, or 1 for a pool without any.
  [[nodiscard]] std::size_t size() const noexcept {
    return std::max<std::size_t>(1, workers_.size());
  }

  /// Runs fn(i) for every i in [begin, end) on the workers and returns when
  /// all have run.  A 1-index range, a pool of 1, or a call made while
  /// another caller's job holds the workers runs inline on the calling
  /// thread instead of waiting.
  /// fn must be safe to call concurrently for distinct i.  Every index runs
  /// even if some throw; the first exception caught is then rethrown.
  template <typename F>
  void parallel_for(std::size_t begin, std::size_t end, const F& fn) {
    run(begin, end, Body{&fn, [](const void* f, std::size_t i) {
                           (*static_cast<const F*>(f))(i);
                         }});
  }

 private:
  /// Non-owning reference to the caller's loop body.
  struct Body {
    const void* fn;
    void (*call)(const void* fn, std::size_t i);
  };

  /// Runs body on indices claimed from `next` until they pass `end`, and
  /// returns the first exception an iteration threw.
  static std::exception_ptr drain(Body body, std::atomic<std::size_t>& next,
                                  std::size_t end) noexcept;
  void run(std::size_t begin, std::size_t end, Body body);
  void worker_loop();
  void stop();

  std::mutex mutex_;
  std::condition_variable wake_;  // workers: a job opened, or stop
  std::condition_variable done_;  // job owner: the last worker left
  // The open job and its completion state, guarded by mutex_.  Only
  // next_, the index counter, is claimed from outside the lock.
  bool stopping_ = false;
  bool busy_ = false;
  std::size_t joined_ = 0;
  Body body_{};
  std::size_t end_ = 0;
  std::exception_ptr error_;
  std::atomic<std::size_t> next_{0};
  std::vector<std::thread> workers_;
};

/// Convenience: map fn over [0, count) on a transient pool sized for the
/// machine, collecting results in index order.  For small counts the work is
/// run inline to avoid thread start-up cost.
template <typename F,
          typename R = std::invoke_result_t<std::decay_t<F>, std::size_t>>
std::vector<R> parallel_map(std::size_t count, F&& fn,
                            std::size_t threads = 0) {
  std::vector<R> results(count);
  if (count <= 1) {
    for (std::size_t i = 0; i < count; ++i) results[i] = fn(i);
    return results;
  }
  ThreadPool pool(threads == 0 ? std::min<std::size_t>(
                                     count, std::thread::hardware_concurrency())
                               : threads);
  pool.parallel_for(0, count, [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace larp
