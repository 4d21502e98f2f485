// Hierarchical in-tree deadlock check (DESIGN.md §13), tool level: the
// side-by-side verifier must report zero divergences on deadlocking and
// clean workloads alike, the pure condensed mode must reproduce the raw
// root check's verdicts and deadlock sets, and the root must only ever see
// the boundary condensation (sublinear in the process count).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "must/harness.hpp"
#include "wfg/graph.hpp"
#include "workloads/stress.hpp"

namespace wst::must {
namespace {

struct ToolRun {
  bool deadlock = false;
  std::string summary;
  std::string dot;
  std::vector<trace::ProcId> deadlocked;
  std::uint32_t detections = 0;
  std::uint32_t hierDivergences = 0;
  std::vector<DistributedTool::RoundStats> rounds;
  std::uint64_t reportedArcs = 0;
};

ToolRun runTool(std::int32_t procs, const ToolConfig& toolCfg,
                const mpi::Runtime::Program& program) {
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpi::RuntimeConfig{}, procs);
  DistributedTool tool(engine, runtime, toolCfg);
  runtime.runToCompletion(program);

  ToolRun out;
  out.deadlock = tool.deadlockFound();
  out.summary = tool.report() ? tool.report()->summary : "none";
  out.detections = tool.detectionsRun();
  out.hierDivergences = tool.hierarchicalDivergences();
  out.rounds = tool.roundHistory();
  if (tool.report()) {
    out.deadlocked = tool.report()->check.deadlocked;
    std::sort(out.deadlocked.begin(), out.deadlocked.end());
    out.reportedArcs = tool.report()->check.arcCount;
  }
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

struct Scenario {
  const char* name;
  std::int32_t procs;
  mpi::Runtime::Program program;
  ToolConfig cfg;
  bool expectDeadlock;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  {
    ToolConfig cfg;
    cfg.fanIn = 4;
    out.push_back({"wildcard-deadlock", 12, workloads::wildcardDeadlock(), cfg,
                   true});
  }
  {
    ToolConfig cfg;
    cfg.fanIn = 2;
    out.push_back({"recv-recv-deadlock", 8, workloads::recvRecvDeadlock(), cfg,
                   true});
  }
  {
    // Single tool node (4 ranks fit on one node): the first layer IS the
    // root, so the condensation is consumed locally without any sendUp.
    ToolConfig cfg;
    cfg.fanIn = 4;
    out.push_back({"single-node-tree", 4, workloads::recvRecvDeadlock(), cfg,
                   true});
  }
  {
    // Clean periodic workload: many detection rounds, none deadlocked, and
    // the condensed finished counts must eventually stop the periodic timer.
    workloads::StressParams params;
    params.iterations = 20;
    params.neighborDistance = 4;
    params.activeRanks = 8;
    ToolConfig cfg;
    cfg.fanIn = 4;
    cfg.periodicDetection = 100 * sim::kMicrosecond;
    out.push_back({"straggler-stress", 16, workloads::cyclicExchange(params),
                   cfg, false});
  }
  return out;
}

TEST(HierarchicalCheck, VerifierReportsZeroDivergencesEverywhere) {
  for (Scenario s : scenarios()) {
    s.cfg.verifyHierarchical = true;
    const ToolRun run = runTool(s.procs, s.cfg, s.program);
    EXPECT_EQ(run.deadlock, s.expectDeadlock) << s.name;
    EXPECT_EQ(run.hierDivergences, 0u) << s.name;
    ASSERT_GE(run.rounds.size(), 1u) << s.name;
    // Every verified round carries the boundary statistics.
    for (const auto& r : run.rounds) {
      EXPECT_TRUE(r.hierarchical) << s.name << " epoch " << r.epoch;
    }
  }
}

TEST(HierarchicalCheck, PureModeReproducesRawVerdicts) {
  for (const Scenario& s : scenarios()) {
    ToolConfig rawCfg = s.cfg;
    ToolConfig hierCfg = s.cfg;
    hierCfg.hierarchicalCheck = true;

    const ToolRun raw = runTool(s.procs, rawCfg, s.program);
    const ToolRun hier = runTool(s.procs, hierCfg, s.program);

    EXPECT_EQ(raw.deadlock, hier.deadlock) << s.name;
    EXPECT_EQ(raw.deadlocked, hier.deadlocked) << s.name;
    // The tracker-side graphs (and therefore the DOT rendering of the
    // deadlocked subgraph) must be identical: the condensed protocol may
    // not perturb what the application executed.
    EXPECT_EQ(raw.dot, hier.dot) << s.name;
    if (s.expectDeadlock) {
      EXPECT_FALSE(hier.summary.empty()) << s.name;
      ASSERT_GE(hier.rounds.size(), 1u) << s.name;
      EXPECT_TRUE(hier.rounds.back().deadlock) << s.name;
    }
  }
}

TEST(HierarchicalCheck, RootOnlySeesTheBoundaryCondensation) {
  // Wildcard deadlock over 16 ranks: the raw WFG is dense (every blocked
  // rank waits on a wildcard clause with ~p targets), but the in-tree
  // fixpoints collapse each subtree so the root sees a handful of boundary
  // nodes and arc runs, not O(p) nodes or O(p^2) arcs.
  ToolConfig cfg;
  cfg.fanIn = 2;
  cfg.hierarchicalCheck = true;
  const ToolRun run = runTool(16, cfg, workloads::wildcardDeadlock());

  ASSERT_TRUE(run.deadlock);
  ASSERT_GE(run.rounds.size(), 1u);
  const auto& last = run.rounds.back();
  EXPECT_TRUE(last.hierarchical);
  EXPECT_GT(last.boundaryNodes, 0u);
  EXPECT_LT(last.boundaryNodes, 16u);
  EXPECT_GT(last.boundaryArcs, 0u);
  // arcCount in the report is the root's honest work figure: boundary arc
  // runs, not the raw arc count of the full graph.
  EXPECT_EQ(run.reportedArcs, last.boundaryArcs);
  EXPECT_FALSE(run.dot.empty());
}

}  // namespace
}  // namespace wst::must
