#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/parallel_engine.hpp"

namespace wst::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  ParallelEngine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, RunsEventsInTimeOrder) {
  ParallelEngine e;
  std::vector<int> order;
  e.schedule(30, [&] { order.push_back(3); });
  e.schedule(10, [&] { order.push_back(1); });
  e.schedule(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  ParallelEngine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule(100, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  ParallelEngine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) e.schedule(5, recurse);
  };
  e.schedule(0, recurse);
  e.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(e.now(), 45u);
}

TEST(Engine, QuiescenceHookRunsWhenQueueDrains) {
  ParallelEngine e;
  int hookRuns = 0;
  e.addQuiescenceHook([&] { ++hookRuns; });
  e.schedule(10, [] {});
  e.run();
  EXPECT_EQ(hookRuns, 1);
}

TEST(Engine, QuiescenceHookMayResumeTheRun) {
  ParallelEngine e;
  int hookRuns = 0;
  bool lateEventRan = false;
  e.addQuiescenceHook([&] {
    if (++hookRuns == 1) e.schedule(50, [&] { lateEventRan = true; });
  });
  e.schedule(10, [] {});
  e.run();
  EXPECT_TRUE(lateEventRan);
  EXPECT_EQ(hookRuns, 2);  // once to reschedule, once to terminate
  EXPECT_EQ(e.now(), 60u);
}

TEST(Engine, RemovedHookDoesNotRun) {
  ParallelEngine e;
  int runs = 0;
  const auto id = e.addQuiescenceHook([&] { ++runs; });
  e.removeQuiescenceHook(id);
  e.schedule(1, [] {});
  e.run();
  EXPECT_EQ(runs, 0);
}

TEST(Engine, HookAddedByRunningHookRunsNextRound) {
  ParallelEngine e;
  int firstRuns = 0;
  int addedRuns = 0;
  e.addQuiescenceHook([&] {
    if (++firstRuns == 1) {
      e.addQuiescenceHook([&] { ++addedRuns; });
      // Resume the run so a second quiescence round happens.
      e.schedule(5, [] {});
    }
  });
  e.schedule(1, [] {});
  e.run();
  // The added hook is not part of the snapshot of the round that added it,
  // but runs in the following round.
  EXPECT_EQ(firstRuns, 2);
  EXPECT_EQ(addedRuns, 1);
}

TEST(Engine, HookRemovedByEarlierHookStillRunsThisRound) {
  ParallelEngine e;
  int removedRuns = 0;
  std::size_t victimId = 0;
  e.addQuiescenceHook([&] { e.removeQuiescenceHook(victimId); });
  victimId = e.addQuiescenceHook([&] { ++removedRuns; });
  e.schedule(1, [] {});
  e.run();
  // Copy semantics: the snapshot taken at quiescence still contains the
  // victim, so it runs once — and never again after removal.
  EXPECT_EQ(removedRuns, 1);
}

TEST(Engine, HookMayRemoveItselfWhileRunning) {
  ParallelEngine e;
  int runs = 0;
  std::size_t id = 0;
  id = e.addQuiescenceHook([&] {
    ++runs;
    e.removeQuiescenceHook(id);
    e.schedule(5, [] {});  // force another quiescence round
  });
  e.schedule(1, [] {});
  e.run();
  EXPECT_EQ(runs, 1);
}

TEST(Engine, TraceHashIsReproducible) {
  const auto run = [] {
    ParallelEngine e;
    for (int i = 0; i < 20; ++i) {
      e.schedule(static_cast<Duration>((i * 7) % 5), [] {});
    }
    e.run();
    return e.traceHash();
  };
  EXPECT_EQ(run(), run());
}

TEST(Engine, TraceHashDistinguishesSchedules) {
  ParallelEngine a;
  a.schedule(10, [] {});
  a.run();
  ParallelEngine b;
  b.schedule(11, [] {});
  b.run();
  EXPECT_NE(a.traceHash(), b.traceHash());
}

// Three LPs passing a token around a ring, plus a local chain per LP: many
// rounds, cross-LP mail, and one quiescence hook that revives the run once.
void buildRing(ParallelEngine& e, int& hookRuns) {
  std::vector<LpId> lps{kMainLp, e.createLp(), e.createLp()};
  e.noteCrossLpLatency(4);
  for (std::size_t k = 0; k < lps.size(); ++k) {
    const LpId next = lps[(k + 1) % lps.size()];
    auto tick = std::make_shared<std::function<void(int)>>();
    // The closure holds its own std::function weakly: a strong capture
    // would be a reference cycle that leaks the closure.
    *tick = [&e, next, weak = std::weak_ptr(tick)](int left) {
      if (left == 0) return;
      const auto self = weak.lock();
      if (left % 4 == 0) {
        e.scheduleOn(next, e.now() + 4, [self, left] { (*self)(left - 1); });
      } else {
        e.schedule(1, [self, left] { (*self)(left - 1); });
      }
    };
    e.scheduleOn(lps[k], 0, [tick] { (*tick)(40); });
  }
  e.addQuiescenceHook([&e, &hookRuns] {
    if (++hookRuns == 1) e.schedule(3, [] {});
  });
}

TEST(Engine, RunSliceStopsBetweenRoundsAndReproducesRun) {
  for (const std::int32_t threads : {1, 2, 4}) {
    int wholeHooks = 0;
    ParallelEngine whole(threads);
    buildRing(whole, wholeHooks);
    whole.run();

    int slicedHooks = 0;
    ParallelEngine sliced(threads);
    buildRing(sliced, slicedHooks);
    std::uint64_t target = 0;
    int slices = 0;
    bool complete = false;
    while (!complete) {
      target += 16;
      ++slices;
      complete = sliced.runSlice(target);
      // A slice stops only at a round boundary at or past its target.
      if (!complete) {
        EXPECT_GE(sliced.eventsExecuted(), target);
      }
    }
    EXPECT_GT(slices, 3) << "threads=" << threads;
    EXPECT_EQ(sliced.traceHash(), whole.traceHash()) << "threads=" << threads;
    EXPECT_EQ(sliced.eventsExecuted(), whole.eventsExecuted());
    EXPECT_EQ(sliced.now(), whole.now());
    EXPECT_EQ(slicedHooks, 2);
    EXPECT_EQ(wholeHooks, 2);

    // A complete engine stays complete: no events, no quiescence hook.
    const std::uint64_t events = sliced.eventsExecuted();
    EXPECT_TRUE(sliced.runSlice(target + 16));
    sliced.run();
    EXPECT_EQ(sliced.eventsExecuted(), events);
    EXPECT_EQ(slicedHooks, 2);
  }
}

TEST(Engine, ScheduleAtAbsoluteTime) {
  ParallelEngine e;
  Time seen = 0;
  e.scheduleAt(123, [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, 123u);
}

TEST(Engine, CountsExecutedEvents) {
  ParallelEngine e;
  for (int i = 0; i < 7; ++i) e.schedule(1, [] {});
  e.run();
  EXPECT_EQ(e.eventsExecuted(), 7u);
}

}  // namespace
}  // namespace wst::sim
