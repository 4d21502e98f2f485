#include <gtest/gtest.h>

#include <vector>

#include "sim/awaitables.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/task.hpp"

namespace wst::sim {
namespace {

Task simpleBody(int& out) {
  out = 42;
  co_return;
}

TEST(Task, RunsOnStart) {
  int out = 0;
  Task t = simpleBody(out);
  EXPECT_EQ(out, 0);  // initial_suspend: nothing ran yet
  t.start();
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(t.done());
}

Task delayedBody(ParallelEngine& e, std::vector<Time>& stamps) {
  stamps.push_back(e.now());
  co_await Delay{e, 100};
  stamps.push_back(e.now());
  co_await Delay{e, 50};
  stamps.push_back(e.now());
}

TEST(Task, DelaySuspendsAndResumesAtVirtualTime) {
  ParallelEngine e;
  std::vector<Time> stamps;
  Task t = delayedBody(e, stamps);
  t.start();
  EXPECT_EQ(stamps.size(), 1u);  // suspended at first delay
  e.run();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_EQ(stamps[0], 0u);
  EXPECT_EQ(stamps[1], 100u);
  EXPECT_EQ(stamps[2], 150u);
  EXPECT_TRUE(t.done());
}

Task child(ParallelEngine& e, std::vector<int>& log) {
  log.push_back(1);
  co_await Delay{e, 10};
  log.push_back(2);
}

Task parent(ParallelEngine& e, std::vector<int>& log) {
  log.push_back(0);
  co_await child(e, log);
  log.push_back(3);
  co_await child(e, log);
  log.push_back(4);
}

TEST(Task, NestedTasksResumeParent) {
  ParallelEngine e;
  std::vector<int> log;
  Task t = parent(e, log);
  t.start();
  e.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 1, 2, 4}));
  EXPECT_TRUE(t.done());
}

Task gateWaiter(Gate& g, bool& resumed) {
  co_await g.wait();
  resumed = true;
}

TEST(Gate, OpenResumesWaiter) {
  Gate g;
  bool resumed = false;
  Task t = gateWaiter(g, resumed);
  t.start();
  EXPECT_FALSE(resumed);
  g.open();
  EXPECT_TRUE(resumed);
}

TEST(Gate, OpenBeforeWaitDoesNotSuspend) {
  Gate g;
  g.open();
  bool resumed = false;
  Task t = gateWaiter(g, resumed);
  t.start();
  EXPECT_TRUE(resumed);
}

TEST(Gate, CallbackRunsOnOpen) {
  Gate g;
  int calls = 0;
  g.onOpen([&] { ++calls; });
  EXPECT_EQ(calls, 0);
  g.open();
  EXPECT_EQ(calls, 1);
}

TEST(Gate, CallbackRunsImmediatelyIfAlreadyOpen) {
  Gate g;
  g.open();
  int calls = 0;
  g.onOpen([&] { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(Gate, ResetAllowsReuse) {
  Gate g;
  g.open();
  g.reset();
  EXPECT_FALSE(g.isOpen());
  bool resumed = false;
  Task t = gateWaiter(g, resumed);
  t.start();
  EXPECT_FALSE(resumed);
  g.open();
  EXPECT_TRUE(resumed);
}

TEST(Task, DestroyWhileSuspendedIsSafe) {
  ParallelEngine e;
  std::vector<Time> stamps;
  {
    Task t = delayedBody(e, stamps);
    t.start();
    // t destroyed while suspended on the delay.
  }
  // The scheduled resume would be a use-after-free if it ran; the engine
  // event still exists but we never run it — mirrors how a deadlocked run
  // tears down: nothing resumes destroyed frames after the engine stops.
  EXPECT_EQ(stamps.size(), 1u);
}

}  // namespace
}  // namespace wst::sim
