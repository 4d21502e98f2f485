// Discrete-event simulation scheduling interface.
//
// One engine implements it: the conservative ParallelEngine
// (sim/parallel_engine.hpp), which shards the event queue into logical
// processes (LPs), pins the LPs to per-worker shards, and executes shards
// concurrently below a lookahead-based safe horizon. With one thread it runs
// everything inline on the caller, and the schedule is identical for every
// thread count. Components schedule against this interface so the MPI
// runtime, channels, and tool never depend on the engine's internals, and
// so decorators (the benchmark's timing wrapper) can sit in between.
//
// Quiescence hooks model the paper's detection timeout: in the real tool the
// TBON root starts graph-based deadlock detection when no events arrive for a
// configurable timeout. In a discrete-event simulation "no events arrive
// anymore" is precisely the moment the event queue drains while the system
// has not terminated, so we surface that moment as a callback. Hooks may
// schedule new events (the consistent-state protocol), which resumes the run.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/time.hpp"

namespace wst::support {
class TraceTrack;
}  // namespace wst::support

namespace wst::sim {

/// Identifier of a logical process (an independently schedulable event
/// queue). Every engine has the main LP, kMainLp, which hosts the
/// application world.
using LpId = std::int32_t;
inline constexpr LpId kMainLp = 0;

namespace detail {

/// FNV-1a folding of one 64-bit value into a running hash. Used for the
/// event-trace hash that the determinism tests compare across thread counts.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
inline std::uint64_t fnvMix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFFU;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace detail

/// Scheduling interface of the engine (and of decorators around it).
class Scheduler {
 public:
  using Action = std::function<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  virtual ~Scheduler() = default;

  /// Current virtual time (of the executing LP; global when idle).
  virtual Time now() const = 0;

  /// Schedule `action` to run at now() + delay on the current LP.
  virtual void schedule(Duration delay, Action action) = 0;

  /// Schedule `action` at an absolute virtual time (>= now()) on the
  /// current LP.
  virtual void scheduleAt(Time when, Action action) = 0;

  /// Schedule `action` at an absolute time on a specific LP. When the
  /// target is not the executing LP, `when` must be at least the sender's
  /// lookahead into the future (see ParallelEngine).
  virtual void scheduleOn(LpId lp, Time when, Action action) = 0;

  /// Schedule a **cadence** event: it executes exactly like a normal event
  /// while live (non-cadence) events keep the run going, but it never
  /// prevents quiescence or termination — leftover cadence events are
  /// discarded when the run ends. This is what periodic telemetry (health
  /// beats, status rewrites) uses so a deadlocked application still drains
  /// to quiescence and triggers detection. From inside an event the target
  /// must be the executing LP (cadence timers are self-rescheduling,
  /// per-LP); from setup context any LP is accepted.
  virtual void scheduleCadenceOn(LpId lp, Time when, Action action) = 0;

  /// Run `fn(now)` at the next deterministic cut: on the coordinating
  /// thread after the current execute round completes (every event below
  /// the round's horizon executed — a state that is byte-identical across
  /// worker counts) or at quiescence. Callbacks run in (requesting LP,
  /// request order) order, may read any LP-owned or registry state, and
  /// must not schedule events or request further cuts.
  virtual void atNextCut(std::function<void(Time)> fn) = 0;

  /// Create a new logical process. Call before run().
  virtual LpId createLp() = 0;

  /// LP of the currently executing event (kMainLp outside of events).
  virtual LpId currentLp() const = 0;
  virtual std::int32_t lpCount() const = 0;

  /// Declare a cross-LP channel latency. The minimum over all declarations
  /// is the conservative lookahead: cross-LP events must be scheduled at
  /// least this far into the sender's future.
  virtual void noteCrossLpLatency(Duration latency) = 0;

  /// True when events on different LPs may execute concurrently. The one
  /// engine always says so; decorators forward it.
  virtual bool parallel() const = 0;

  /// Register a hook invoked whenever the event queue drains. Hooks run in
  /// registration order, serially on the coordinating thread; if any hook
  /// schedules new events the run continues. Returns an id usable with
  /// removeQuiescenceHook.
  virtual std::size_t addQuiescenceHook(Action hook) = 0;
  virtual void removeQuiescenceHook(std::size_t id) = 0;

  /// Run until every event queue is empty and no quiescence hook
  /// reschedules.
  virtual void run() = 0;

  /// True if no events are pending.
  virtual bool empty() const = 0;

  /// Number of events executed since construction.
  virtual std::uint64_t eventsExecuted() const = 0;

  /// FNV-1a hash over the executed (time, sequence) trace, folded per LP in
  /// LP order. Byte-identical across worker counts for the same workload —
  /// the determinism tests' primary witness.
  virtual std::uint64_t traceHash() const = 0;

  /// Attach a flight-recorder track for engine-level events (quiescence
  /// moments). Null detaches. Only deterministic values may be recorded
  /// here: quiescence times and executed-event counts are identical across
  /// worker counts, per-round worker statistics are not.
  void setTraceTrack(support::TraceTrack* track) { traceTrack_ = track; }

 protected:
  support::TraceTrack* traceTrack_ = nullptr;
};

}  // namespace wst::sim
