// Hybrid static/dynamic tracking (DESIGN.md §15), tool level: inside the
// certified prefix the governor must actually suppress tracker traffic
// (certified ops, suppressed messages, cheaper completion) without changing
// any verdict or the terminal tracker state; an empty certificate (profiling
// run deadlocks) must leave the run byte-identical to plain tracking; and
// the Interposer phase hook must reach the tool's counter.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "must/harness.hpp"
#include "must/hybrid.hpp"
#include "workloads/spec.hpp"
#include "workloads/stress.hpp"

namespace wst::must {
namespace {

struct ToolRun {
  bool deadlock = false;
  std::string summary;
  sim::Time completionTime = 0;
  std::vector<trace::LocalTs> state;
  std::uint64_t suppressedTotal = 0;
  std::uint64_t suppressedHybrid = 0;
  std::uint64_t certifiedOps = 0;
  std::uint64_t phaseMarks = 0;
  std::uint64_t toolMessages = 0;
  std::uint64_t transitions = 0;
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
  for (trace::ProcId p = 0; p < procs; ++p) {
    out.state.push_back(tool.tracker(tool.topology().nodeOfProc(p)).current(p));
  }
  const auto counter = [&](const char* name) {
    return tool.metrics().counter(name).value();
  };
  out.suppressedTotal = counter("tracker/suppressed_msgs");
  out.suppressedHybrid = counter("tracker/suppressed_msgs/hybrid");
  out.certifiedOps = counter("tracker/certified_ops");
  out.phaseMarks = counter("tracker/phase_marks");
  out.toolMessages = tool.overlay().totalMessages();
  out.transitions = tool.totalTransitions();
  return out;
}

TEST(HybridTracking, CertifiedPrefixSuppressesTrackerTraffic) {
  // Sendrecv ring with a barrier every 5th iteration: the trace front-end
  // segments at the barriers and every interior phase certifies, so the
  // prefix covers all but the final phase.
  workloads::StressParams params;
  params.iterations = 25;
  params.barrierEvery = 5;
  const auto program = workloads::cyclicExchange(params);
  const mpi::RuntimeConfig mpiCfg;
  ToolConfig cfg;
  cfg.fanIn = 4;

  const analysis::Certificate cert = certifyWorkload(8, mpiCfg, program);
  ASSERT_TRUE(cert.active()) << cert.summary();
  EXPECT_GT(cert.prefixPhases, 0);
  EXPECT_GT(cert.certifiedOps(), 0u);

  const ToolRun plain = runTool(8, mpiCfg, cfg, program);
  ToolConfig hybridCfg = cfg;
  hybridCfg.certificate = &cert;
  const ToolRun hybrid = runTool(8, mpiCfg, hybridCfg, program);

  // The governor really engaged: certified ops were sampled, their events
  // and protocol messages never entered the overlay, and the tracker ran
  // strictly fewer transitions.
  EXPECT_GT(hybrid.certifiedOps, 0u);
  EXPECT_GT(hybrid.suppressedHybrid, 0u);
  EXPECT_GE(hybrid.suppressedTotal, hybrid.suppressedHybrid);
  EXPECT_LT(hybrid.toolMessages, plain.toolMessages);
  EXPECT_LT(hybrid.transitions, plain.transitions);
  EXPECT_EQ(plain.suppressedHybrid, 0u);

  // Observational equivalence: the re-armed tracker finishes in the same
  // terminal state with the same verdict.
  EXPECT_EQ(plain.deadlock, hybrid.deadlock);
  EXPECT_EQ(plain.summary, hybrid.summary);
  EXPECT_EQ(plain.state, hybrid.state);
}

TEST(HybridTracking, SpecProxyKeepsVerdictAndStateAcrossModes) {
  for (const char* name : {"121.pop2", "137.lu"}) {
    const workloads::SpecApp* app = workloads::findSpecApp(name);
    ASSERT_NE(app, nullptr) << name;
    workloads::SpecScale scale;
    scale.iterations = 4;
    const mpi::RuntimeConfig mpiCfg;
    ToolConfig cfg;
    cfg.fanIn = 4;
    cfg.periodicDetection = 200 * sim::kMicrosecond;

    const analysis::Certificate cert =
        certifyWorkload(8, mpiCfg, app->make(scale));
    const ToolRun plain = runTool(8, mpiCfg, cfg, app->make(scale));
    ToolConfig hybridCfg = cfg;
    hybridCfg.certificate = &cert;
    const ToolRun hybrid = runTool(8, mpiCfg, hybridCfg, app->make(scale));

    EXPECT_EQ(plain.deadlock, hybrid.deadlock) << name;
    EXPECT_EQ(plain.summary, hybrid.summary) << name;
    EXPECT_EQ(plain.state, hybrid.state) << name;
    if (cert.active()) {
      EXPECT_GT(hybrid.suppressedHybrid, 0u) << name;
    }
  }
}

TEST(HybridTracking, DeadlockingWorkloadYieldsInactiveCertificate) {
  // The profiling run never finalizes, so the certificate is empty and the
  // hybrid run is byte-identical to plain tracking — including the verdict.
  const auto program = workloads::wildcardDeadlock();
  const mpi::RuntimeConfig mpiCfg;
  ToolConfig cfg;
  cfg.fanIn = 4;

  const analysis::Certificate cert = certifyWorkload(12, mpiCfg, program);
  EXPECT_FALSE(cert.active());
  EXPECT_EQ(cert.certifiedOps(), 0u);

  const ToolRun plain = runTool(12, mpiCfg, cfg, program);
  ToolConfig hybridCfg = cfg;
  hybridCfg.certificate = &cert;
  const ToolRun hybrid = runTool(12, mpiCfg, hybridCfg, program);

  EXPECT_TRUE(hybrid.deadlock);
  EXPECT_EQ(plain.deadlock, hybrid.deadlock);
  EXPECT_EQ(plain.summary, hybrid.summary);
  EXPECT_EQ(plain.completionTime, hybrid.completionTime);
  EXPECT_EQ(plain.state, hybrid.state);
  EXPECT_EQ(hybrid.suppressedHybrid, 0u);
  EXPECT_EQ(hybrid.certifiedOps, 0u);
}

TEST(HybridTracking, PhaseMarkerHookReachesTheTool) {
  // Proc::phase() is a pure marker: no trace record, no cost, but the
  // Interposer hook must surface it in the tool's phase_marks counter.
  const auto program = [](mpi::Proc& self) -> sim::Task {
    self.phase(1);
    co_await self.barrier();
    self.phase(2);
    co_await self.finalize();
  };
  const mpi::RuntimeConfig mpiCfg;
  ToolConfig cfg;
  cfg.fanIn = 2;

  const ToolRun run = runTool(4, mpiCfg, cfg, program);
  EXPECT_FALSE(run.deadlock);
  EXPECT_EQ(run.phaseMarks, 8u);  // 2 markers x 4 ranks
}

}  // namespace
}  // namespace wst::must
