// Incremental detection rounds (DESIGN.md §10), tool level: the delta gather
// must elide stable waiters, full-gather and delta-gather runs must be
// observationally identical, the built-in side-by-side verifier must report
// zero divergences everywhere, and every round must ping each peer node that
// hosts the receiver of an active send (paper Figure 8).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "must/harness.hpp"
#include "wfg/graph.hpp"
#include "workloads/spec.hpp"
#include "workloads/stress.hpp"

namespace wst::must {
namespace {

struct ToolRun {
  bool deadlock = false;
  std::string summary;
  std::string dot;
  sim::Time completionTime = 0;
  std::uint32_t detections = 0;
  std::uint32_t divergences = 0;
  std::vector<DistributedTool::RoundStats> rounds;
  std::uint64_t pingsSent = 0;
  std::uint64_t gatherSavedBytes = 0;
};

ToolRun runTool(std::int32_t procs, const mpi::RuntimeConfig& mpiCfg,
                const ToolConfig& toolCfg,
                const mpi::Runtime::Program& program) {
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpiCfg, procs);
  DistributedTool tool(engine, runtime, toolCfg);
  runtime.runToCompletion(program);

  ToolRun out;
  out.deadlock = tool.deadlockFound();
  out.summary = tool.report() ? tool.report()->summary : "none";
  out.completionTime = engine.now();
  out.detections = tool.detectionsRun();
  out.divergences = tool.verifyDivergences();
  out.rounds = tool.roundHistory();
  out.pingsSent = tool.metrics().counter("tool/pings_sent").value();
  out.gatherSavedBytes =
      tool.metrics().counter("tool/gather_saved_bytes").value();
  if (tool.deadlockFound()) {
    wfg::WaitForGraph graph(procs);
    for (trace::ProcId p = 0; p < procs; ++p) {
      graph.setNode(
          tool.tracker(tool.topology().nodeOfProc(p)).waitConditions(p));
    }
    graph.pruneCollectiveCoWaiters();
    graph.writeDot([&](std::string_view s) { out.dot += s; },
                   tool.report()->check.deadlocked);
  }
  return out;
}

/// Rank 0 posts a send to rank 2 immediately; rank 2 computes for a long
/// time before receiving it. Detection rounds during the compute keep seeing
/// the same active send toward rank 2's (otherwise silent) node.
mpi::Runtime::Program lateReceiver() {
  return [](mpi::Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      co_await self.send(2, 0, 4);
    } else if (self.rank() == 2) {
      co_await self.compute(2 * sim::kMillisecond);
      co_await self.recv(0, 0);
    }
    co_await self.finalize();
  };
}

TEST(IncrementalDetection, DeltaGatherElidesStableWaiters) {
  // Straggler stress: 8 ranks exchange, 8 block in a stable Recv. The first
  // round is a full gather; later rounds must only re-gather the churning
  // active ranks (the ISSUE acceptance criterion: strictly fewer gathered
  // NodeConditions than procCount after the first round).
  workloads::StressParams params;
  params.iterations = 25;
  params.neighborDistance = 4;
  params.activeRanks = 8;
  const auto program = workloads::cyclicExchange(params);
  const mpi::RuntimeConfig mpiCfg;
  ToolConfig toolCfg;
  toolCfg.fanIn = 4;
  toolCfg.periodicDetection = 100 * sim::kMicrosecond;
  toolCfg.verifyIncremental = true;

  const ToolRun run = runTool(16, mpiCfg, toolCfg, program);
  EXPECT_FALSE(run.deadlock);
  EXPECT_EQ(run.divergences, 0u);
  ASSERT_GE(run.rounds.size(), 3u);

  const auto& first = run.rounds.front();
  EXPECT_EQ(first.changed, 16u);
  EXPECT_EQ(first.unchanged, 0u);
  EXPECT_TRUE(first.fullRebuild);

  // Every completed round accounts for every process, gathered or elided.
  for (const auto& r : run.rounds) {
    EXPECT_EQ(r.changed + r.unchanged, 16u) << "epoch " << r.epoch;
  }

  // Delta rounds: the 8 idle ranks are elided, so strictly fewer conditions
  // than procCount travel up the tree, and the check warm-starts.
  const auto& second = run.rounds[1];
  EXPECT_GT(second.unchanged, 0u);
  EXPECT_LT(second.changed, 16u);
  EXPECT_TRUE(second.warmStart);
  EXPECT_GT(run.gatherSavedBytes, 0u);

  // Unblock round: the completion token releases the idle ranks, so a later
  // round re-gathers more processes than the steady-state delta rounds.
  const auto more = std::any_of(
      run.rounds.begin() + 2, run.rounds.end(),
      [&](const auto& r) { return r.changed > second.changed; });
  EXPECT_TRUE(more);
}

TEST(IncrementalDetection, FullAndDeltaGatherRunsAreIdentical) {
  struct Scenario {
    const char* name;
    std::int32_t procs;
    mpi::Runtime::Program program;
    ToolConfig cfg;
  };
  std::vector<Scenario> scenarios;

  {
    workloads::StressParams params;
    params.iterations = 20;
    params.neighborDistance = 4;
    params.activeRanks = 8;
    ToolConfig cfg;
    cfg.fanIn = 4;
    cfg.periodicDetection = 100 * sim::kMicrosecond;
    scenarios.push_back(
        {"straggler-stress", 16, workloads::cyclicExchange(params), cfg});
  }
  {
    workloads::StressParams params;
    params.iterations = 15;
    params.neighborDistance = 2;
    ToolConfig cfg;
    cfg.fanIn = 2;
    cfg.batchWaitState = true;
    cfg.periodicDetection = 150 * sim::kMicrosecond;
    scenarios.push_back(
        {"batched-stress", 8, workloads::cyclicExchange(params), cfg});
  }
  {
    ToolConfig cfg;
    cfg.fanIn = 4;
    scenarios.push_back(
        {"wildcard-deadlock", 12, workloads::wildcardDeadlock(), cfg});
  }
  {
    ToolConfig cfg;
    cfg.fanIn = 4;
    scenarios.push_back(
        {"recv-recv-deadlock", 8, workloads::recvRecvDeadlock(), cfg});
  }
  for (const char* name : {"121.pop2", "137.lu"}) {
    const workloads::SpecApp* app = workloads::findSpecApp(name);
    ASSERT_NE(app, nullptr) << name;
    workloads::SpecScale scale;
    scale.iterations = 4;
    ToolConfig cfg;
    cfg.fanIn = 4;
    cfg.periodicDetection = 200 * sim::kMicrosecond;
    scenarios.push_back({app->name, 8, app->make(scale), cfg});
  }

  const mpi::RuntimeConfig mpiCfg;
  for (const Scenario& s : scenarios) {
    ToolConfig fullCfg = s.cfg;
    fullCfg.incrementalGather = false;
    ToolConfig incCfg = s.cfg;
    incCfg.incrementalGather = true;
    incCfg.verifyIncremental = true;

    const ToolRun full = runTool(s.procs, mpiCfg, fullCfg, s.program);
    const ToolRun inc = runTool(s.procs, mpiCfg, incCfg, s.program);

    EXPECT_EQ(full.deadlock, inc.deadlock) << s.name;
    EXPECT_EQ(full.summary, inc.summary) << s.name;
    EXPECT_EQ(full.dot, inc.dot) << s.name;
    EXPECT_EQ(full.completionTime, inc.completionTime) << s.name;
    EXPECT_EQ(full.detections, inc.detections) << s.name;
    EXPECT_EQ(inc.divergences, 0u) << s.name;
    ASSERT_EQ(full.rounds.size(), inc.rounds.size()) << s.name;
    for (std::size_t i = 0; i < full.rounds.size(); ++i) {
      EXPECT_EQ(full.rounds[i].deadlock, inc.rounds[i].deadlock)
          << s.name << " round " << i;
      // The full run gathers everyone every round; the delta run may elide,
      // but both must integrate the same total per round.
      EXPECT_EQ(full.rounds[i].changed + full.rounds[i].unchanged,
                inc.rounds[i].changed + inc.rounds[i].unchanged)
          << s.name << " round " << i;
    }
  }
}

TEST(IncrementalDetection, EveryRoundPingsTheActiveSendPeer) {
  ToolConfig cfg;
  cfg.fanIn = 2;
  cfg.periodicDetection = 100 * sim::kMicrosecond;
  cfg.verifyIncremental = true;
  const ToolRun run = runTool(4, mpi::RuntimeConfig{}, cfg, lateReceiver());

  // The late receiver holds rank 0's send active for ~2ms: many rounds.
  ASSERT_GE(run.rounds.size(), 3u);
  // Each round while the send is active pings rank 2's node, even though
  // that link carried no traffic since the previous round; only the last
  // round, after the receive, may have nothing to ping.
  EXPECT_GE(run.pingsSent, run.rounds.size() - 1);
  EXPECT_FALSE(run.deadlock);
  EXPECT_EQ(run.divergences, 0u);
}

TEST(IncrementalDetection, DeadlockVerdictAgreesWithVerifierOnFirstRound) {
  // Manifest deadlock: the first (and only) detection round is a full
  // gather + cold check; the verifier's side-by-side full check must agree
  // and the round stats must record the deadlock.
  const mpi::RuntimeConfig mpiCfg;
  ToolConfig cfg;
  cfg.fanIn = 4;
  cfg.verifyIncremental = true;

  const ToolRun run = runTool(12, mpiCfg, cfg, workloads::wildcardDeadlock());
  EXPECT_TRUE(run.deadlock);
  EXPECT_EQ(run.divergences, 0u);
  ASSERT_GE(run.rounds.size(), 1u);
  EXPECT_TRUE(run.rounds.back().deadlock);
  EXPECT_TRUE(run.rounds.front().fullRebuild);
  EXPECT_FALSE(run.dot.empty());
}

}  // namespace
}  // namespace wst::must
