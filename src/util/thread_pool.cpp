#include "util/thread_pool.hpp"

#include <utility>

namespace larp {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (threads == 1) return;  // a pool of one is the calling thread alone
  workers_.reserve(threads);
  try {
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] {
      return stopping_ || (busy_ && next_.load(std::memory_order_relaxed) < end_);
    });
    if (stopping_) return;
    ++joined_;
    const Body body = body_;
    const std::size_t end = end_;
    lock.unlock();
    std::exception_ptr error = drain(body, next_, end);
    lock.lock();
    if (error && !error_) error_ = std::move(error);
    if (--joined_ == 0) done_.notify_one();
  }
}

std::exception_ptr ThreadPool::drain(Body body, std::atomic<std::size_t>& next,
                                     std::size_t end) noexcept {
  std::exception_ptr error;
  for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < end;) {
    try {
      body.call(body.fn, i);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  return error;
}

void ThreadPool::run(std::size_t begin, std::size_t end, Body body) {
  if (begin >= end) return;
  bool forked = false;
  if (end - begin > 1 && !workers_.empty()) {
    std::lock_guard lock(mutex_);
    if (!busy_) {
      busy_ = forked = true;
      body_ = body;
      end_ = end;
      next_.store(begin, std::memory_order_relaxed);
    }
  }
  if (!forked) {
    std::atomic<std::size_t> next{begin};
    if (auto error = drain(body, next, end)) std::rethrow_exception(error);
    return;
  }
  wake_.notify_all();
  std::unique_lock lock(mutex_);
  // Workers join only while busy_ is set and claim indices only after
  // joining, so once every index is claimed and joined_ reads 0 under the
  // lock, no worker can reach `body` again.
  done_.wait(lock, [&] {
    return joined_ == 0 && next_.load(std::memory_order_relaxed) >= end;
  });
  busy_ = false;
  const std::exception_ptr error = std::exchange(error_, nullptr);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace larp
