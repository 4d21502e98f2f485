// Tests of the reproduction's implemented future-work extensions:
// distributed unexpected-match detection (paper §3.3), wait-state message
// prioritization (paper §6), and their interaction with the tool.
#include <gtest/gtest.h>

#include "must/harness.hpp"
#include "workloads/spec.hpp"
#include "workloads/stress.hpp"

namespace wst::must {
namespace {

using mpi::Proc;

TEST(Extensions, DistributedUnexpectedMatchDetectedAtRoot) {
  // Paper Figure 4 under non-synchronizing rooted collectives, executed
  // under the full distributed tool: the root must flag the unexpected
  // match gathered from the first layer.
  mpi::RuntimeConfig mpiCfg;
  mpiCfg.ranksPerNode = 4;
  mpiCfg.collectiveSync = mpi::CollectiveSync::kRooted;

  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpiCfg, 3);
  DistributedTool tool(engine, runtime, ToolConfig{.fanIn = 2});
  runtime.runToCompletion(workloads::figure4());

  // The app completes; the conservative analysis stalls -> detection runs.
  EXPECT_TRUE(runtime.allFinalized());
  EXPECT_TRUE(tool.deadlockFound());
  ASSERT_EQ(tool.unexpectedMatches().size(), 1u);
  const auto& um = tool.unexpectedMatches()[0];
  EXPECT_EQ(um.wildcardRecv, (trace::OpId{1, 0}));
  EXPECT_EQ(um.activeSend, (trace::OpId{0, 0}));
  EXPECT_TRUE(um.hadMatch);
  EXPECT_EQ(um.matchedSend.proc, 2);
}

TEST(Extensions, NoUnexpectedMatchesOnPlainDeadlocks) {
  const auto program = workloads::recvRecvDeadlock();
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpi::RuntimeConfig{}, 2);
  DistributedTool tool(engine, runtime, ToolConfig{.fanIn = 2});
  runtime.runToCompletion(program);
  EXPECT_TRUE(tool.deadlockFound());
  EXPECT_TRUE(tool.unexpectedMatches().empty());
}

TEST(Extensions, WildcardStressHasNoUnexpectedMatches) {
  // No sends at all: nothing can be unexpected.
  const auto result = runWithTool(8, mpi::RuntimeConfig{},
                                  ToolConfig{.fanIn = 4},
                                  workloads::wildcardDeadlock());
  EXPECT_TRUE(result.deadlockReported);
}

TEST(Extensions, PriorityKeepsAnalysisResultsIdentical) {
  // Prioritizing wait-state messages must not change any verdict.
  const auto program = workloads::figure2b();
  ToolConfig plain{.fanIn = 2};
  ToolConfig prio{.fanIn = 2};
  prio.prioritizeWaitState = true;
  const auto a = runWithTool(3, mpi::RuntimeConfig{}, plain, program);
  const auto b = runWithTool(3, mpi::RuntimeConfig{}, prio, program);
  ASSERT_TRUE(a.deadlockReported);
  ASSERT_TRUE(b.deadlockReported);
  EXPECT_EQ(a.report->check.deadlocked, b.report->check.deadlocked);
}

TEST(Extensions, PriorityShrinksTraceWindowsOnHighCallRateApp) {
  // The GAPgeofem proxy: analysis progress lags the event stream because
  // each completion needs intralayer round trips that queue behind newer
  // NewOp events. Prioritizing wait-state messages lets the analysis catch
  // up — the paper's §6 proposal for reducing the trace-window footprint.
  const workloads::SpecApp* app = workloads::findSpecApp("128.GAPgeofem");
  ASSERT_NE(app, nullptr);
  workloads::SpecScale scale;
  scale.iterations = 10;
  scale.computeScale = 1.0;

  ToolConfig plain{.fanIn = 4};
  ToolConfig prio{.fanIn = 4};
  prio.prioritizeWaitState = true;

  const auto a = runWithTool(16, mpi::RuntimeConfig{}, plain,
                             app->make(scale));
  const auto b = runWithTool(16, mpi::RuntimeConfig{}, prio,
                             app->make(scale));
  EXPECT_TRUE(a.allFinalized);
  EXPECT_TRUE(b.allFinalized);
  EXPECT_FALSE(a.deadlockReported);
  EXPECT_FALSE(b.deadlockReported);
  EXPECT_LT(b.maxWindow, a.maxWindow);
}

TEST(Extensions, OracleHoldsUnderPriority) {
  // The tracker must reach the same terminal state with prioritized
  // processing (message reordering across classes must be semantics-free).
  const auto program = workloads::figure2b();
  ToolConfig prio{.fanIn = 2};
  prio.prioritizeWaitState = true;
  prio.appEventCost = 0;
  prio.overlay.appToLeaf.credits = 0;
  const auto result = runWithTool(3, mpi::RuntimeConfig{}, prio, program);
  ASSERT_TRUE(result.deadlockReported);
  EXPECT_EQ(result.report->check.deadlocked.size(), 3u);
}

}  // namespace
}  // namespace wst::must
