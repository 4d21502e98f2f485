// Recorder + formal-system analysis of recorded executions, and the harness.
#include <gtest/gtest.h>

#include "must/harness.hpp"
#include "must/recorder.hpp"
#include "waitstate/transition_system.hpp"
#include "workloads/stress.hpp"

namespace wst::must {
namespace {

using mpi::Proc;

TEST(Recorder, RecordsCleanRunAndAnalysisFinishes) {
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpi::RuntimeConfig{}, 3);
  Recorder recorder(runtime);
  runtime.runToCompletion([](Proc& self) -> sim::Task {
    if (self.rank() == 0) co_await self.send(1, 0, 8);
    if (self.rank() == 1) co_await self.recv(0, 0);
    co_await self.barrier();
    co_await self.finalize();
  });
  const trace::MatchedTrace trace = recorder.finish();
  // rank0: send+barrier+finalize; rank1: recv+barrier+finalize;
  // rank2: barrier+finalize.
  EXPECT_EQ(trace.totalOps(), 8u);
  waitstate::TransitionSystem ts(trace);
  ts.runToTerminal();
  EXPECT_TRUE(ts.allFinished());
}

TEST(Recorder, WildcardResolutionRecorded) {
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpi::RuntimeConfig{}, 3);
  Recorder recorder(runtime);
  runtime.runToCompletion([](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      mpi::Status st{};
      co_await self.recv(mpi::kAnySource, mpi::kAnyTag, &st);
      co_await self.recv(mpi::kAnySource, mpi::kAnyTag, &st);
    } else {
      co_await self.compute(
          self.rank() == 2 ? 10 * sim::kMicrosecond : 1 * sim::kMicrosecond);
      co_await self.send(0);
    }
    co_await self.finalize();
  });
  const trace::MatchedTrace trace = recorder.finish();
  // Rank 1 sent earlier; the first wildcard receive matched it.
  const auto firstMatch = trace.sendOf(trace::OpId{0, 0});
  ASSERT_TRUE(firstMatch.has_value());
  EXPECT_EQ(firstMatch->proc, 1);
  const auto secondMatch = trace.sendOf(trace::OpId{0, 1});
  ASSERT_TRUE(secondMatch.has_value());
  EXPECT_EQ(secondMatch->proc, 2);
}

TEST(Recorder, CommSplitGroupsRegistered) {
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpi::RuntimeConfig{}, 4);
  Recorder recorder(runtime);
  runtime.runToCompletion([](Proc& self) -> sim::Task {
    mpi::CommId sub = -1;
    co_await self.commSplit(mpi::kCommWorld, self.rank() % 2, self.rank(),
                            &sub);
    co_await self.barrier(sub);
    co_await self.finalize();
  });
  const trace::MatchedTrace trace = recorder.finish();
  // World + two split groups.
  EXPECT_EQ(trace.commGroup(mpi::kCommWorld).size(), 4u);
  EXPECT_EQ(trace.commGroup(1).size(), 2u);
  EXPECT_EQ(trace.commGroup(2).size(), 2u);
  waitstate::TransitionSystem ts(trace);
  ts.runToTerminal();
  EXPECT_TRUE(ts.allFinished());
}

TEST(Recorder, DeadlockedRunAnalyzesAsDeadlock) {
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpi::RuntimeConfig{}, 2);
  Recorder recorder(runtime);
  runtime.runToCompletion(workloads::recvRecvDeadlock());
  EXPECT_FALSE(runtime.allFinalized());
  const trace::MatchedTrace trace = recorder.finish();
  waitstate::TransitionSystem ts(trace);
  ts.runToTerminal();
  EXPECT_FALSE(ts.allFinished());
  const auto graph = ts.buildWaitForGraph();
  EXPECT_TRUE(graph.check().deadlock);
}

TEST(Harness, SlowdownComputedAgainstReference) {
  const auto program = workloads::cyclicExchange(
      workloads::StressParams{.iterations = 10});
  const auto ref = runReference(4, mpi::RuntimeConfig{}, program);
  ToolConfig cfg{.fanIn = 2};
  const auto tooled = runWithTool(4, mpi::RuntimeConfig{}, cfg, program);
  EXPECT_TRUE(ref.allFinalized);
  EXPECT_TRUE(tooled.allFinalized);
  EXPECT_GT(ref.completionTime, 0u);
  EXPECT_GE(tooled.completionTime, ref.completionTime);
  EXPECT_GE(tooled.slowdownOver(ref), 1.0);
  EXPECT_EQ(ref.appCalls, tooled.appCalls);
  EXPECT_GT(tooled.toolMessages, 0u);
}

TEST(Harness, ReferenceLastFinalizeMatchesCompletion) {
  const auto program = workloads::cyclicExchange(
      workloads::StressParams{.iterations = 5});
  const auto ref = runReference(4, mpi::RuntimeConfig{}, program);
  EXPECT_EQ(ref.completionTime, ref.lastFinalize);
}

}  // namespace
}  // namespace wst::must
