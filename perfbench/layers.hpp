// Outside-in layer accounting for the traced benchmark run.
//
// Every layer of the simulator is reached through two public interfaces:
// sim::Scheduler (each event the MPI runtime, the overlay and the tool
// schedule) and mpi::Interposer (each MPI call the runtime hands to the
// tool). The decorators below wrap those interfaces without touching any
// layer's code:
//
//  * TimedScheduler forwards every virtual call to the real engine and wraps
//    each action so its wall time is charged to the LP the action runs on:
//    currentLp() for schedule/scheduleAt, the `lp` argument for
//    scheduleOn/scheduleCadenceOn. Quiescence hooks and atNextCut callbacks
//    are charged to their own buckets. The engine still assigns every
//    sequence number, so the trace hash is unchanged.
//  * TimedInterposer forwards onEvent/onPhase to the tool and times onEvent.
//
// Threading: an LP executes on exactly one engine shard, so each per-LP slot
// has one writer; slots are cache-line aligned so two shards never share a
// line. Hooks and cuts run on the coordinating thread between rounds. All
// counters are read after run() returned (the engine's final barrier orders
// the writes before the reads).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mpi/interpose.hpp"
#include "sim/engine.hpp"
#include "support/align.hpp"

namespace wst::perfbench {

inline std::uint64_t wallNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class TimedScheduler final : public sim::Scheduler {
 public:
  struct alignas(support::kCacheLine) LpSlot {
    std::uint64_t busyNs = 0;
    std::uint64_t events = 0;
  };

  /// Call before any component creates LPs on `inner`.
  explicit TimedScheduler(sim::Scheduler& inner)
      : inner_(inner), slots_(static_cast<std::size_t>(inner.lpCount())) {}

  sim::Time now() const override { return inner_.now(); }
  void schedule(sim::Duration delay, Action action) override {
    inner_.schedule(delay, wrap(inner_.currentLp(), std::move(action)));
  }
  void scheduleAt(sim::Time when, Action action) override {
    inner_.scheduleAt(when, wrap(inner_.currentLp(), std::move(action)));
  }
  void scheduleOn(sim::LpId lp, sim::Time when, Action action) override {
    inner_.scheduleOn(lp, when, wrap(lp, std::move(action)));
  }
  void scheduleCadenceOn(sim::LpId lp, sim::Time when,
                         Action action) override {
    inner_.scheduleCadenceOn(lp, when, wrap(lp, std::move(action)));
  }
  void atNextCut(std::function<void(sim::Time)> fn) override {
    inner_.atNextCut([this, fn = std::move(fn)](sim::Time at) {
      const std::uint64_t start = wallNowNs();
      fn(at);
      cutNs_ += wallNowNs() - start;
    });
  }
  sim::LpId createLp() override {
    const sim::LpId lp = inner_.createLp();
    slots_.resize(static_cast<std::size_t>(inner_.lpCount()));
    return lp;
  }
  sim::LpId currentLp() const override { return inner_.currentLp(); }
  std::int32_t lpCount() const override { return inner_.lpCount(); }
  void noteCrossLpLatency(sim::Duration latency) override {
    inner_.noteCrossLpLatency(latency);
  }
  bool parallel() const override { return inner_.parallel(); }
  std::size_t addQuiescenceHook(Action hook) override {
    return inner_.addQuiescenceHook([this, hook = std::move(hook)] {
      const std::uint64_t start = wallNowNs();
      hook();
      hookNs_ += wallNowNs() - start;
    });
  }
  void removeQuiescenceHook(std::size_t id) override {
    inner_.removeQuiescenceHook(id);
  }
  void run() override { inner_.run(); }
  bool empty() const override { return inner_.empty(); }
  std::uint64_t eventsExecuted() const override {
    return inner_.eventsExecuted();
  }
  std::uint64_t traceHash() const override { return inner_.traceHash(); }

  const std::vector<LpSlot>& slots() const { return slots_; }
  std::uint64_t hookNs() const { return hookNs_; }
  std::uint64_t cutNs() const { return cutNs_; }

 private:
  Action wrap(sim::LpId lp, Action action) {
    return [this, lp, action = std::move(action)] {
      const std::uint64_t start = wallNowNs();
      action();
      LpSlot& slot = slots_[static_cast<std::size_t>(lp)];
      slot.busyNs += wallNowNs() - start;
      ++slot.events;
    };
  }

  sim::Scheduler& inner_;
  std::vector<LpSlot> slots_;
  std::uint64_t hookNs_ = 0;
  std::uint64_t cutNs_ = 0;
};

class TimedInterposer final : public mpi::Interposer {
 public:
  explicit TimedInterposer(mpi::Interposer& inner) : inner_(inner) {}

  Hold onEvent(const trace::Event& event) override {
    const std::uint64_t start = wallNowNs();
    Hold hold = inner_.onEvent(event);
    busyNs_ += wallNowNs() - start;
    ++calls_;
    return hold;
  }
  void onPhase(mpi::Rank rank, std::int32_t phase) override {
    inner_.onPhase(rank, phase);
  }

  std::uint64_t busyNs() const { return busyNs_; }
  std::uint64_t calls() const { return calls_; }

 private:
  mpi::Interposer& inner_;
  std::uint64_t busyNs_ = 0;
  std::uint64_t calls_ = 0;
};

}  // namespace wst::perfbench
