// The discrete-event engine: conservative, shard-per-core.
//
// The simulation is split into logical processes (LPs): the main LP (id 0)
// hosts the application world — every rank coroutine and the MPI matching
// machinery, which share state and cannot be split — and each TBON tool node
// gets an LP of its own (the overlay creates them). LPs are statically
// partitioned into **shards**, one shard per worker thread, and a shard owns
// its LPs outright: their event queues, virtual clocks, sequence counters,
// trace-hash accumulators, and statistics are touched by exactly one thread
// for the whole run. There is no work stealing and no shared mutable round
// state — the seastar-style shared-nothing layout. One thread (the default)
// is one shard run inline on the caller: no worker, no barrier.
//
// Cross-LP mail whose destination LP lives on the sending thread's own shard
// goes into that shard's mail vector. Cross-shard mail travels through
// per-(source shard, destination shard) SPSC rings (sim/spsc_ring.hpp): a
// cross-shard send is a wait-free push by the sending shard, and each shard
// drains its own inbound rings at round start. No mutex exists anywhere on
// the send or drain path, and a one-shard engine has no ring at all.
//
// Execution proceeds in barrier-synchronized rounds (YAWNS), two parallel
// phases per round separated by a sense-reversing spin barrier
// (sim/barrier.hpp):
//
//   drain phase    every shard takes its own mail and drains its inbound
//                  rings, sorts the mail by the deterministic (dst LP, when,
//                  src LP, src seq) key, appends it to the destination
//                  queues, and computes its shard-local minimum next-event
//                  time;
//   (serial)       the coordinator reduces the shard minima to T_min and
//                  publishes the safe horizon H = T_min + L (L = minimum
//                  cross-LP channel latency, the lookahead);
//   execute phase  every shard runs those of its LPs whose next event lies
//                  below H, each LP strictly sequentially in (time, seq)
//                  order.
//
// Safety: an LP executing at time t < H can only send cross-LP events with
// timestamp >= t + L >= H — at or beyond the horizon — so nothing a shard
// executes this round can be affected by in-flight mail. Safety does not
// depend on the shard layout, only on the horizon rule.
//
// Determinism: per-LP execution order is (time, seq); cross-LP mail is
// stamped with the *sending LP's* counter and merged into the destination
// queue in sorted (when, srcLp, srcSeq) order at round boundaries. The sort
// key never mentions shards, and same-shard and cross-shard mail meet in the
// same sort, so the merge — and therefore verdicts, DOT output, metrics, and
// the per-LP trace hash — is byte-identical for any --threads value and any
// LP-to-shard layout.
//
// Quiescence hooks run serially on the coordinating thread between rounds
// (workers parked at the barrier). The coordinator runs shard 0, so their
// sends to shard 0 use its mail vector; sends to other shards go through
// coordinator-owned external rings.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/barrier.hpp"
#include "sim/engine.hpp"
#include "sim/spsc_ring.hpp"
#include "support/align.hpp"
#include "support/metrics.hpp"

namespace wst::sim {

namespace detail {

struct Event {
  Time when = 0;
  std::uint64_t seq = 0;
  std::function<void()> action;
  /// Cadence (telemetry) events execute normally while live events exist
  /// but never keep the engine alive: quiescence and termination are
  /// decided as if they were not queued. See Scheduler::scheduleCadenceOn.
  bool cadence = false;
};

/// Binary min-heap on (when, seq) whose pop() *moves* the event out —
/// std::priority_queue::top() is const&, which forced a std::function copy
/// (and its closure allocation) per executed event on the hottest path.
class EventHeap {
 public:
  bool empty() const { return heap_.empty(); }
  /// Events that count toward quiescence (everything but cadence events).
  std::size_t liveSize() const { return live_; }
  const Event& top() const { return heap_.front(); }

  void push(Time when, std::uint64_t seq, std::function<void()> action,
            bool cadence = false) {
    heap_.push_back(Event{when, seq, std::move(action), cadence});
    if (!cadence) ++live_;
    siftUp(heap_.size() - 1);
  }

  /// Remove and return the earliest event (smallest (when, seq)).
  Event pop() {
    Event out = std::move(heap_.front());
    Event last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) siftDown(std::move(last));
    if (!out.cadence) --live_;
    return out;
  }

  /// Drop every queued event (end-of-run cadence cleanup).
  void clear() {
    heap_.clear();
    live_ = 0;
  }

 private:
  static bool earlier(const Event& a, const Event& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  static bool earlier(const Event& a, Time when, std::uint64_t seq) {
    if (a.when != when) return a.when < when;
    return a.seq < seq;
  }

  void siftUp(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!earlier(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  /// Place `hole` (the former last element) starting from the root.
  void siftDown(Event hole) {
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
      if (!earlier(heap_[child], hole.when, hole.seq)) break;
      heap_[i] = std::move(heap_[child]);
      i = child;
    }
    heap_[i] = std::move(hole);
  }

  std::vector<Event> heap_;
  std::size_t live_ = 0;
};

}  // namespace detail

class ParallelEngine final : public Scheduler {
 public:
  /// Merged per-run statistics. Everything except workerEvents is
  /// deterministic across thread counts; workerEvents (events executed per
  /// shard) is deterministic *given a layout* but the layout follows the
  /// thread count, so keep it out of output compared across --threads.
  struct Stats {
    std::uint64_t rounds = 0;
    /// LPs that had pending events at or beyond the horizon of a round.
    std::uint64_t horizonStalls = 0;
    std::uint64_t crossLpEvents = 0;
    /// Largest single-round inbound mail batch of any LP.
    std::size_t mailboxHighWater = 0;
    /// Events executed per shard (shard 0 = the calling thread).
    std::vector<std::uint64_t> workerEvents;
  };

  /// `threads` counts the calling thread; 1 runs everything inline (no
  /// worker threads, no barriers) with identical results. The effective
  /// shard count is min(threads, LP count) — extra threads beyond the LP
  /// count would only spin at the barrier, so they are not spawned. The
  /// lookahead is the minimum latency components declare through
  /// noteCrossLpLatency.
  explicit ParallelEngine(std::int32_t threads = 1);
  ~ParallelEngine() override;

  Time now() const override;
  void schedule(Duration delay, Action action) override;
  void scheduleAt(Time when, Action action) override;
  void scheduleOn(LpId lp, Time when, Action action) override;
  void scheduleCadenceOn(LpId lp, Time when, Action action) override;
  void atNextCut(std::function<void(Time)> fn) override;
  LpId createLp() override;
  LpId currentLp() const override;
  std::int32_t lpCount() const override {
    return static_cast<std::int32_t>(lps_.size());
  }
  void noteCrossLpLatency(Duration latency) override;
  bool parallel() const override { return true; }

  std::size_t addQuiescenceHook(Action hook) override;
  void removeQuiescenceHook(std::size_t id) override;

  void run() override;

  /// Cooperative slice of run(), for callers that interleave many engines
  /// on a few threads (the serve session pool). Executes whole rounds until
  /// eventsExecuted() reaches `untilEvents`, then yields between two rounds;
  /// the next call resumes exactly where this one stopped, so a sliced run
  /// executes the same events in the same order as run(). Returns true once
  /// the run is complete (the quiescence hooks declined to continue, cuts
  /// drained, leftover cadence timers discarded) — exactly the terminal
  /// state run() leaves behind. A complete engine stays complete: later
  /// calls return true at once and rerun no quiescence hook, until new
  /// events are scheduled.
  bool runSlice(std::uint64_t untilEvents);

  bool empty() const override;
  std::uint64_t eventsExecuted() const override;
  std::uint64_t traceHash() const override;

  std::int32_t threads() const { return threads_; }
  /// Shards of the current layout (0 before the first run()).
  std::int32_t shardCount() const { return shardCount_; }
  Duration lookahead() const { return lookahead_; }
  /// Statistics merged across shards (by value: per-shard slices live in
  /// cache-line-padded shard state and are folded on demand).
  Stats stats() const;
  /// Distribution of concurrently-runnable LPs per round (the parallelism
  /// the conservative horizon actually exposed).
  const support::Histogram& roundOccupancy() const { return roundOccupancy_; }

  /// Publish engine statistics as gauges (engine/rounds, engine/lps,
  /// engine/horizon_stalls, engine/cross_lp_events, engine/events,
  /// engine/mailbox_high_water, engine/lookahead_ns, round-occupancy
  /// quantiles) — all deterministic across thread counts. With
  /// includePerWorker, adds engine/threads, engine/shards, and
  /// engine/worker<i>/events, which follow the layout; keep them out of any
  /// output that is compared across thread counts.
  void publishMetrics(support::MetricsRegistry& metrics,
                      bool includePerWorker = false) const;

 private:
  /// A cross-LP event in flight until the next round boundary.
  struct Mail {
    Time when = 0;
    LpId dstLp = 0;
    LpId srcLp = 0;
    std::uint64_t srcSeq = 0;
    Action action;
    bool cadence = false;
  };

  struct Lp {
    LpId id = 0;
    std::int32_t shard = 0;
    detail::EventHeap queue;
    Time now = 0;
    std::uint64_t nextSeq = 0;   // local insertion order
    std::uint64_t crossSeq = 0;  // stamped onto outgoing cross-LP events
    std::uint64_t executed = 0;
    std::uint64_t hash = detail::kFnvOffset;
  };

  /// Everything one worker thread owns, padded so no two shards share a
  /// cache line (the per-worker stats of the previous engine false-shared
  /// through a contiguous vector).
  struct alignas(support::kCacheLine) Shard {
    std::vector<Lp*> lps;  // owned LPs, ascending id
    /// Mail for this shard's LPs sent by this shard's own thread (its LPs
    /// in the execute phase; for shard 0 also the coordinator's external
    /// sends), taken by the same thread in the next drain phase, so it
    /// needs no ring.
    std::vector<Mail> localMail;
    std::vector<Mail> scratch;  // drain staging, reused across rounds
    std::uint64_t executedEvents = 0;
    std::uint64_t crossLpEvents = 0;
    std::uint64_t horizonStalls = 0;
    std::size_t mailboxHighWater = 0;
    std::size_t readyCount = 0;  // LPs run in the current execute phase
    Time localMin = 0;           // drain-phase result
    bool barrierSense = false;   // this shard's thread's barrier flag
    /// *Live* (non-cadence) events queued across this shard's LPs,
    /// refreshed at the end of each phase. Quiescence and anyPending() key
    /// off this count so pending cadence timers never hold the run open;
    /// the horizon still ranges over every queued event (localMin), because
    /// a cadence event that executes can send mail like any other.
    std::atomic<std::uint64_t> queuedEvents{0};
  };

  enum class Phase : std::uint8_t { kDrain, kExecute, kShutdown };

  /// Sort key source for events sent from outside any LP (pre-run setup and
  /// quiescence hooks). Sorts before any real LP at equal times.
  static constexpr LpId kExternalLp = -1;

  Lp* executingLp() const;
  void enqueueLocal(Lp& lp, Time when, Action action, bool cadence = false);
  /// Hand `mail` to its destination shard: the mail vector of that shard
  /// when the sending thread runs it, else a wait-free ring push.
  void pushMail(std::int32_t srcShard, Mail mail);
  /// External (non-LP) sends: staged while idle, pushed while running.
  void pushExternal(Mail mail);
  /// Shard whose thread sends as `srcShard`: the external row
  /// (shardCount_) is the coordinating thread, which runs shard 0.
  std::int32_t threadShard(std::int32_t srcShard) const {
    return srcShard == shardCount_ ? 0 : srcShard;
  }
  /// Ring from `srcShard` (shardCount_ = the external row) to `dstShard`;
  /// null where the sending thread runs `dstShard` itself (that mail goes
  /// into the shard's own vector), so a one-shard engine has no ring.
  detail::SpscRing<Mail>* ring(std::int32_t srcShard, std::int32_t dstShard) {
    return rings_[static_cast<std::size_t>(srcShard) *
                      static_cast<std::size_t>(shardCount_) +
                  static_cast<std::size_t>(dstShard)]
        .get();
  }

  /// (Re)build the LP-to-shard layout and the ring matrix; flush staged
  /// external mail into the rings. Called when a run starts.
  void ensureShards();
  void startWorkers();
  void workerMain(std::size_t shard);
  /// Publish `phase` and drive every shard through it (coordinator runs
  /// shard 0 itself). Single-shard layouts skip the barrier entirely.
  void runPhase(Phase phase);
  void drainShard(std::size_t shard);
  void executeShard(std::size_t shard);
  void runLp(Lp& lp, Shard& shard);
  bool anyPending() const;
  bool runQuiescenceHooks();
  /// Run queued atNextCut callbacks on the coordinating thread (workers
  /// parked). Callbacks are stable-sorted by requesting LP so the order is
  /// layout-invariant even when several LPs requested cuts the same round.
  void drainCuts();

  static thread_local ParallelEngine* tlsEngine_;
  static thread_local Lp* tlsLp_;

  const std::int32_t threads_;
  Duration lookahead_ = 0;
  std::deque<Lp> lps_;  // stable addresses; shards hold pointers
  Time globalNow_ = 0;
  std::uint64_t externalSeq_ = 0;
  /// Inside a run: between its first round and its completion, including
  /// the pauses between runSlice calls.
  bool running_ = false;
  /// The last run completed and nothing was scheduled since.
  bool complete_ = false;

  std::vector<std::pair<std::size_t, Action>> quiescenceHooks_;
  std::size_t nextHookId_ = 0;

  // Deferred deterministic-cut requests. Events on any shard may request a
  // cut, so pushes are mutex-protected; the mutex is off the hot path (one
  // lock per request, typically a handful per detection round) and the run
  // loop polls the flag, not the lock.
  std::mutex cutMu_;
  std::vector<std::pair<LpId, std::function<void(Time)>>> cutRequests_;
  std::atomic<bool> cutsPending_{false};

  // Shard machinery, built by ensureShards() when the first run starts. The
  // ring matrix has (shardCount_ + 1) producer rows: one per shard plus the
  // external row (producer = the coordinating thread, which is the only
  // context that ever sends from outside an LP).
  std::int32_t shardCount_ = 0;
  std::int32_t layoutLps_ = 0;
  std::deque<Shard> shards_;  // deque: Shard holds an atomic (not movable)
  std::vector<std::unique_ptr<detail::SpscRing<Mail>>> rings_;
  std::unique_ptr<detail::SpinBarrier> barrier_;
  std::vector<Mail> externalStaged_;  // sends before run() / between runs

  // Round state: written by the coordinator in its serial window, read by
  // workers after the phase barrier (which supplies the ordering).
  Phase phase_ = Phase::kDrain;
  Time horizon_ = 0;

  std::vector<std::thread> workers_;  // shardCount_ - 1, spawned lazily

  std::uint64_t rounds_ = 0;  // coordinator-owned
  support::Histogram roundOccupancy_;
};

/// The benchmark driver (perfbench/driver.cpp) names the engine both ways:
/// `sim::Engine` for its solo serve replicas, `sim::ParallelEngine` for the
/// paper workloads. The benchmark's source stays fixed while the code it
/// measures changes, so both spellings name the one engine.
using Engine = ParallelEngine;

}  // namespace wst::sim
