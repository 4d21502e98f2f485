// Persistent worker pool for round-based multi-session scheduling
// (DESIGN.md §17). `wst serve` multiplexes N independent one-thread
// simulations over a fixed set of OS threads: each scheduling round
// distributes the live sessions over the workers (atomic claiming, so a long
// session does not convoy the short ones behind a static partition) and
// ends with a full barrier. The barrier is what makes admission/eviction
// race-free: the server mutates the session table only between rounds, when
// no worker holds a session.
//
// Determinism: every session runs on its own one-thread engine, and a
// session is claimed by exactly one worker per round, so per-session state
// is only ever touched by one thread at a time (handed off through the
// round barrier's acquire/release edges). Which worker runs which session
// varies across runs — nothing session-visible may depend on it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/assert.hpp"

namespace wst::sim {

class SessionPool {
 public:
  explicit SessionPool(std::int32_t threads) {
    WST_ASSERT(threads >= 1, "session pool needs at least one thread");
    // threads == 1 degenerates to inline execution on the caller — no
    // workers, no synchronization, byte-identical to a plain loop.
    for (std::int32_t t = 1; t < threads; ++t) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  }

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  ~SessionPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    roundStart_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  /// Run `fn(i)` once for every i in [0, count), spread over the pool's
  /// threads, and return only when all calls finished (the round barrier).
  /// The caller's thread participates as a worker.
  void forEach(std::size_t count, const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;
    if (workers_.empty()) {
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      fn_ = &fn;
      count_ = count;
      next_.store(0, std::memory_order_relaxed);
      pending_ = workers_.size();
      ++generation_;
    }
    roundStart_.notify_all();
    drain(fn);
    std::unique_lock<std::mutex> lock(mutex_);
    roundDone_.wait(lock, [this] { return pending_ == 0; });
    fn_ = nullptr;
  }

  std::int32_t threadCount() const {
    return static_cast<std::int32_t>(workers_.size()) + 1;
  }

 private:
  void drain(const std::function<void(std::size_t)>& fn) {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count_) return;
      fn(i);
    }
  }

  void workerLoop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        roundStart_.wait(lock,
                         [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        fn = fn_;
      }
      drain(*fn);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--pending_ == 0) roundDone_.notify_one();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable roundStart_;
  std::condition_variable roundDone_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace wst::sim
