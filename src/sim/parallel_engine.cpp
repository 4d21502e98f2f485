#include "sim/parallel_engine.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/tracing.hpp"

namespace wst::sim {

namespace {

constexpr Time kNever = std::numeric_limits<Time>::max();

}  // namespace

thread_local ParallelEngine* ParallelEngine::tlsEngine_ = nullptr;
thread_local ParallelEngine::Lp* ParallelEngine::tlsLp_ = nullptr;

ParallelEngine::ParallelEngine(std::int32_t threads)
    : threads_(std::max(threads, 1)) {
  lps_.emplace_back();  // the main LP (application world)
  lps_.back().id = kMainLp;
}

ParallelEngine::~ParallelEngine() {
  if (!workers_.empty()) {
    phase_ = Phase::kShutdown;
    barrier_->arriveAndWait(shards_[0].barrierSense);
    for (std::thread& worker : workers_) worker.join();
  }
}

ParallelEngine::Lp* ParallelEngine::executingLp() const {
  return (tlsEngine_ == this) ? tlsLp_ : nullptr;
}

Time ParallelEngine::now() const {
  const Lp* lp = executingLp();
  return lp != nullptr ? lp->now : globalNow_;
}

LpId ParallelEngine::currentLp() const {
  const Lp* lp = executingLp();
  return lp != nullptr ? lp->id : kMainLp;
}

LpId ParallelEngine::createLp() {
  WST_ASSERT(!running_, "createLp during run()");
  lps_.emplace_back();
  lps_.back().id = static_cast<LpId>(lps_.size() - 1);
  return lps_.back().id;
}

void ParallelEngine::noteCrossLpLatency(Duration latency) {
  WST_ASSERT(!running_, "noteCrossLpLatency during run()");
  WST_ASSERT(latency > 0, "cross-LP channels need a positive latency");
  if (lookahead_ == 0 || latency < lookahead_) lookahead_ = latency;
}

void ParallelEngine::enqueueLocal(Lp& lp, Time when, Action action,
                                  bool cadence) {
  WST_ASSERT(when >= lp.now, "cannot schedule an event in the virtual past");
  lp.queue.push(when, lp.nextSeq++, std::move(action), cadence);
}

void ParallelEngine::pushMail(std::int32_t srcShard, Mail mail) {
  const std::int32_t dst = lps_[static_cast<std::size_t>(mail.dstLp)].shard;
  if (dst == threadShard(srcShard)) {
    shards_[static_cast<std::size_t>(dst)].localMail.push_back(std::move(mail));
  } else {
    ring(srcShard, dst)->push(std::move(mail));
  }
}

void ParallelEngine::pushExternal(Mail mail) {
  if (running_) {
    // Quiescence hooks (and callers between slices) run on the coordinating
    // thread while workers are parked at the barrier; the external ring row
    // is SPSC with the coordinator as its only producer.
    pushMail(shardCount_, std::move(mail));
  } else {
    // Setup (possibly before the layout exists): stage; ensureShards()
    // flushes into the rings when the next run starts.
    externalStaged_.push_back(std::move(mail));
    complete_ = false;
  }
}

void ParallelEngine::schedule(Duration delay, Action action) {
  scheduleAt(now() + delay, std::move(action));
}

void ParallelEngine::scheduleAt(Time when, Action action) {
  Lp* lp = executingLp();
  if (lp != nullptr) {
    enqueueLocal(*lp, when, std::move(action));
    return;
  }
  // Outside any event (setup or a quiescence hook): route to the main LP,
  // stamped with the external sequence — the coordinating thread owns the
  // counter.
  WST_ASSERT(when >= globalNow_,
             "cannot schedule an event in the virtual past");
  pushExternal(Mail{when, kMainLp, kExternalLp, externalSeq_++,
                    std::move(action)});
}

void ParallelEngine::scheduleOn(LpId target, Time when, Action action) {
  WST_ASSERT(target >= 0 && target < lpCount(), "scheduleOn: unknown LP");
  Lp* src = executingLp();
  if (src != nullptr) {
    if (src->id == target) {
      enqueueLocal(*src, when, std::move(action));
      return;
    }
    // The conservative guarantee: cross-LP events land at or beyond the
    // horizon of the round that sent them.
    WST_ASSERT(when >= src->now + lookahead_,
               "cross-LP event inside the lookahead window");
    pushMail(src->shard, Mail{when, target, src->id, src->crossSeq++,
                              std::move(action)});
    return;
  }
  WST_ASSERT(when >= globalNow_,
             "cannot schedule an event in the virtual past");
  pushExternal(Mail{when, target, kExternalLp, externalSeq_++,
                    std::move(action)});
}

void ParallelEngine::scheduleCadenceOn(LpId target, Time when, Action action) {
  WST_ASSERT(target >= 0 && target < lpCount(),
             "scheduleCadenceOn: unknown LP");
  Lp* src = executingLp();
  if (src != nullptr) {
    // Cadence timers are per-LP self-rescheduling clocks; cross-LP cadence
    // mail from inside an event is not supported (the rings cannot be
    // inspected by the live-event quiescence test).
    WST_ASSERT(src->id == target,
               "in-event cadence scheduling must target the executing LP");
    enqueueLocal(*src, when, std::move(action), /*cadence=*/true);
    return;
  }
  WST_ASSERT(when >= globalNow_,
             "cannot schedule an event in the virtual past");
  Mail mail{when, target, kExternalLp, externalSeq_++, std::move(action)};
  mail.cadence = true;
  pushExternal(std::move(mail));
}

void ParallelEngine::atNextCut(std::function<void(Time)> fn) {
  const Lp* lp = executingLp();
  const LpId requester = lp != nullptr ? lp->id : kExternalLp;
  std::lock_guard lock(cutMu_);
  cutRequests_.emplace_back(requester, std::move(fn));
  cutsPending_.store(true, std::memory_order_release);
}

void ParallelEngine::drainCuts() {
  std::vector<std::pair<LpId, std::function<void(Time)>>> due;
  {
    std::lock_guard lock(cutMu_);
    due.swap(cutRequests_);
    cutsPending_.store(false, std::memory_order_relaxed);
  }
  if (due.empty()) return;
  // Per-LP request order is already program order (an LP runs serially);
  // stable-sorting by requester erases the cross-shard push interleaving.
  std::stable_sort(due.begin(), due.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  Time cutNow = globalNow_;
  for (const Lp& lp : lps_) cutNow = std::max(cutNow, lp.now);
  for (auto& [requester, fn] : due) fn(cutNow);
}

std::size_t ParallelEngine::addQuiescenceHook(Action hook) {
  const std::size_t id = nextHookId_++;
  quiescenceHooks_.emplace_back(id, std::move(hook));
  return id;
}

void ParallelEngine::removeQuiescenceHook(std::size_t id) {
  std::erase_if(quiescenceHooks_,
                [id](const auto& entry) { return entry.first == id; });
}

void ParallelEngine::ensureShards() {
  const std::int32_t lpTotal = lpCount();
  const std::int32_t want = std::max<std::int32_t>(
      1, std::min<std::int32_t>(threads_, lpTotal));
  if (shardCount_ != want || layoutLps_ != lpTotal) {
    WST_ASSERT(workers_.empty(),
               "LP set changed after worker threads started; create all LPs "
               "before the first run()");
    for (const auto& r : rings_) {
      WST_ASSERT(r == nullptr || r->empty(),
                 "shard layout rebuild with mail in flight");
    }
    shardCount_ = want;
    layoutLps_ = lpTotal;
    shards_.clear();
    for (std::int32_t s = 0; s < shardCount_; ++s) shards_.emplace_back();
    // Static pinning: the main LP (application world, the Amdahl-bound
    // bulk of the event stream) owns shard 0 by itself whenever more than
    // one shard exists; tool-node LPs round-robin over the remaining
    // shards. The layout affects only load balance — determinism never
    // depends on it (the mail sort key has no shard component).
    for (Lp& lp : lps_) {
      if (shardCount_ == 1) {
        lp.shard = 0;
      } else if (lp.id == kMainLp) {
        lp.shard = 0;
      } else {
        lp.shard = 1 + (lp.id - 1) % (shardCount_ - 1);
      }
      shards_[static_cast<std::size_t>(lp.shard)].lps.push_back(&lp);
    }
    rings_.clear();
    rings_.reserve(static_cast<std::size_t>(shardCount_ + 1) *
                   static_cast<std::size_t>(shardCount_));
    for (std::int32_t src = 0; src <= shardCount_; ++src) {
      for (std::int32_t dst = 0; dst < shardCount_; ++dst) {
        rings_.push_back(threadShard(src) == dst
                             ? nullptr
                             : std::make_unique<detail::SpscRing<Mail>>());
      }
    }
    barrier_ = std::make_unique<detail::SpinBarrier>(shardCount_);
  }
  // Flush external mail staged while idle into the coordinator's ring row.
  for (Mail& mail : externalStaged_) pushMail(shardCount_, std::move(mail));
  externalStaged_.clear();
}

void ParallelEngine::startWorkers() {
  if (!workers_.empty() || shardCount_ <= 1) return;
  workers_.reserve(static_cast<std::size_t>(shardCount_) - 1);
  for (std::int32_t s = 1; s < shardCount_; ++s) {
    workers_.emplace_back(
        [this, s] { workerMain(static_cast<std::size_t>(s)); });
  }
}

void ParallelEngine::workerMain(std::size_t shard) {
  bool& sense = shards_[shard].barrierSense;
  for (;;) {
    barrier_->arriveAndWait(sense);  // wait for the coordinator's phase
    const Phase phase = phase_;      // ordered by the barrier
    if (phase == Phase::kShutdown) return;
    if (phase == Phase::kDrain) {
      drainShard(shard);
    } else {
      executeShard(shard);
    }
    barrier_->arriveAndWait(sense);  // phase done
  }
}

void ParallelEngine::runPhase(Phase phase) {
  if (shardCount_ <= 1) {
    if (phase == Phase::kDrain) {
      drainShard(0);
    } else {
      executeShard(0);
    }
    return;
  }
  phase_ = phase;
  bool& sense = shards_[0].barrierSense;
  barrier_->arriveAndWait(sense);  // release workers into the phase
  if (phase == Phase::kDrain) {
    drainShard(0);
  } else {
    executeShard(0);
  }
  barrier_->arriveAndWait(sense);  // join: all shards done
}

void ParallelEngine::drainShard(std::size_t shard) {
  Shard& sh = shards_[shard];
  // Take this shard's own mail (the swap keeps both buffers' capacity),
  // then append what the other shards and the coordinator sent.
  std::vector<Mail>& mail = sh.scratch;
  mail.swap(sh.localMail);
  for (std::int32_t src = 0; src <= shardCount_; ++src) {
    if (auto* r = ring(src, static_cast<std::int32_t>(shard))) {
      r->drainInto(mail);
    }
  }
  if (!mail.empty()) {
    sh.crossLpEvents += mail.size();
    // (dstLp, when, srcLp, srcSeq) is a deterministic total order of the
    // round's inbound traffic: per destination LP it reduces to the
    // (when, srcLp, srcSeq) merge key, independent of worker interleaving
    // AND of which ring (shard layout) carried each item.
    std::sort(mail.begin(), mail.end(), [](const Mail& a, const Mail& b) {
      if (a.dstLp != b.dstLp) return a.dstLp < b.dstLp;
      if (a.when != b.when) return a.when < b.when;
      if (a.srcLp != b.srcLp) return a.srcLp < b.srcLp;
      return a.srcSeq < b.srcSeq;
    });
    std::size_t runStart = 0;
    for (std::size_t i = 0; i < mail.size(); ++i) {
      Mail& m = mail[i];
      Lp& lp = lps_[static_cast<std::size_t>(m.dstLp)];
      WST_ASSERT(m.when >= lp.now, "cross-LP event arrived in the past");
      lp.queue.push(m.when, lp.nextSeq++, std::move(m.action), m.cadence);
      if (i + 1 == mail.size() || mail[i + 1].dstLp != m.dstLp) {
        sh.mailboxHighWater = std::max(sh.mailboxHighWater, i + 1 - runStart);
        runStart = i + 1;
      }
    }
    mail.clear();
  }
  // Shard-local slice of the min-reduction for the next horizon, plus the
  // lock-free *live* pending count that quiescence and anyPending() read.
  // The horizon minimum must range over every event (cadence included) —
  // an executing cadence event can send cross-LP mail like any other, so
  // excluding it would break the lookahead guarantee.
  Time tmin = kNever;
  std::uint64_t live = 0;
  for (const Lp* lp : sh.lps) {
    if (lp->queue.empty()) continue;
    tmin = std::min(tmin, lp->queue.top().when);
    live += lp->queue.liveSize();
  }
  sh.localMin = tmin;
  sh.queuedEvents.store(live, std::memory_order_relaxed);
}

void ParallelEngine::runLp(Lp& lp, Shard& shard) {
  tlsEngine_ = this;
  tlsLp_ = &lp;
#ifndef NDEBUG
  support::gMetricsWriterLp = lp.id;
#endif
  std::uint64_t executed = 0;
  while (!lp.queue.empty() && lp.queue.top().when < horizon_) {
    detail::Event event = lp.queue.pop();
    WST_ASSERT(event.when >= lp.now, "event queue returned a past event");
    lp.now = event.when;
    lp.hash = detail::fnvMix(detail::fnvMix(lp.hash, event.when), event.seq);
    ++executed;
    event.action();
  }
  lp.executed += executed;
  shard.executedEvents += executed;
#ifndef NDEBUG
  support::gMetricsWriterLp = -1;
#endif
  tlsLp_ = nullptr;
  tlsEngine_ = nullptr;
}

void ParallelEngine::executeShard(std::size_t shard) {
  Shard& sh = shards_[shard];
  sh.readyCount = 0;
  for (Lp* lp : sh.lps) {
    if (lp->queue.empty()) continue;
    if (lp->queue.top().when >= horizon_) {
      ++sh.horizonStalls;
      continue;
    }
    ++sh.readyCount;
    runLp(*lp, sh);
  }
  std::uint64_t live = 0;
  for (const Lp* lp : sh.lps) live += lp->queue.liveSize();
  sh.queuedEvents.store(live, std::memory_order_relaxed);
}

bool ParallelEngine::anyPending() const {
  if (!externalStaged_.empty()) return true;
  if (shardCount_ == 0) return false;  // pre-layout: nothing but staged mail
  for (const Shard& sh : shards_) {
    if (sh.queuedEvents.load(std::memory_order_relaxed) != 0) return true;
    if (!sh.localMail.empty()) return true;
  }
  for (const auto& r : rings_) {
    if (r != nullptr && !r->empty()) return true;
  }
  return false;
}

bool ParallelEngine::runQuiescenceHooks() {
  // Copy semantics: hooks may add/remove hooks while running; a hook
  // removed by an earlier hook still runs this round.
  const auto hooks = quiescenceHooks_;
  for (const auto& [id, hook] : hooks) {
    hook();
    if (anyPending()) return true;
  }
  return anyPending();
}

void ParallelEngine::run() {
  WST_ASSERT(!running_, "run() is not reentrant");
  runSlice(std::numeric_limits<std::uint64_t>::max());
}

bool ParallelEngine::runSlice(std::uint64_t untilEvents) {
  if (!running_) {
    if (complete_) return true;
    running_ = true;
    ensureShards();
    startWorkers();
  }
  for (;;) {
    if (eventsExecuted() >= untilEvents) {
      // Paused between two rounds: now() reports the latest executed event.
      for (const Lp& lp : lps_) globalNow_ = std::max(globalNow_, lp.now);
      return false;
    }
    runPhase(Phase::kDrain);
    Time tmin = kNever;
    std::uint64_t live = 0;
    for (const Shard& sh : shards_) {
      tmin = std::min(tmin, sh.localMin);
      live += sh.queuedEvents.load(std::memory_order_relaxed);
    }
    if (live == 0) {
      // Quiescent on *live* events (pending cadence timers do not count):
      // workers are parked at the barrier, so shard state is safely
      // readable here. Quiescence time and total executed events are
      // deterministic across worker counts (round/stall counters are not —
      // keep them out).
      for (const Lp& lp : lps_) globalNow_ = std::max(globalNow_, lp.now);
      if (traceTrack_ != nullptr) {
        traceTrack_->instant("quiescence", "engine", "events",
                             static_cast<std::int64_t>(eventsExecuted()));
      }
      if (cutsPending_.load(std::memory_order_acquire)) drainCuts();
      if (runQuiescenceHooks()) continue;
      // Complete. Leftover events are cadence-only: telemetry timers past
      // the end of the run. Discard without executing.
      for (Lp& lp : lps_) lp.queue.clear();
      for (Shard& sh : shards_) {
        sh.queuedEvents.store(0, std::memory_order_relaxed);
      }
      drainCuts();
      running_ = false;
      complete_ = true;
      return true;
    }
    if (lps_.size() == 1) {
      horizon_ = kNever;  // no cross-LP traffic possible: run to empty
    } else {
      WST_ASSERT(lookahead_ > 0,
                 "multiple LPs require a positive lookahead "
                 "(noteCrossLpLatency)");
      horizon_ = tmin + lookahead_;
    }
    ++rounds_;
    runPhase(Phase::kExecute);
    std::size_t occupancy = 0;
    for (const Shard& sh : shards_) occupancy += sh.readyCount;
    roundOccupancy_.record(occupancy);
    // Deferred cuts drain in the coordinator's serial window: every event
    // below this round's horizon has executed, a state byte-identical
    // across worker counts and shard layouts.
    if (cutsPending_.load(std::memory_order_acquire)) drainCuts();
  }
}

bool ParallelEngine::empty() const { return !anyPending(); }

std::uint64_t ParallelEngine::eventsExecuted() const {
  std::uint64_t total = 0;
  for (const Lp& lp : lps_) total += lp.executed;
  return total;
}

std::uint64_t ParallelEngine::traceHash() const {
  std::uint64_t hash = detail::kFnvOffset;
  for (const Lp& lp : lps_) {
    hash = detail::fnvMix(hash, lp.hash);
    hash = detail::fnvMix(hash, lp.executed);
  }
  return hash;
}

ParallelEngine::Stats ParallelEngine::stats() const {
  Stats merged;
  merged.rounds = rounds_;
  merged.workerEvents.reserve(shards_.size());
  for (const Shard& sh : shards_) {
    merged.horizonStalls += sh.horizonStalls;
    merged.crossLpEvents += sh.crossLpEvents;
    merged.mailboxHighWater =
        std::max(merged.mailboxHighWater, sh.mailboxHighWater);
    merged.workerEvents.push_back(sh.executedEvents);
  }
  return merged;
}

void ParallelEngine::publishMetrics(support::MetricsRegistry& metrics,
                                    bool includePerWorker) const {
  const Stats merged = stats();
  metrics.gauge("engine/rounds")
      .set(static_cast<std::int64_t>(merged.rounds));
  metrics.gauge("engine/horizon_stalls")
      .set(static_cast<std::int64_t>(merged.horizonStalls));
  metrics.gauge("engine/cross_lp_events")
      .set(static_cast<std::int64_t>(merged.crossLpEvents));
  metrics.gauge("engine/mailbox_high_water")
      .set(static_cast<std::int64_t>(merged.mailboxHighWater));
  metrics.gauge("engine/lps").set(lpCount());
  metrics.gauge("engine/lookahead_ns")
      .set(static_cast<std::int64_t>(lookahead_));
  metrics.gauge("engine/events")
      .set(static_cast<std::int64_t>(eventsExecuted()));
  metrics.gauge("engine/round_occupancy_p50")
      .set(static_cast<std::int64_t>(roundOccupancy_.quantile(0.5)));
  metrics.gauge("engine/round_occupancy_p99")
      .set(static_cast<std::int64_t>(roundOccupancy_.quantile(0.99)));
  if (!includePerWorker) return;
  // Layout-dependent values: the shard count follows min(threads, LPs), so
  // none of these may enter output compared across thread counts.
  metrics.gauge("engine/threads").set(threads_);
  metrics.gauge("engine/shards").set(shardCount_);
  for (std::size_t i = 0; i < merged.workerEvents.size(); ++i) {
    metrics.gauge("engine/worker" + std::to_string(i) + "/events")
        .set(static_cast<std::int64_t>(merged.workerEvents[i]));
  }
}

}  // namespace wst::sim
