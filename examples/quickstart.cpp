// Quickstart: detect the classic head-to-head Recv/Recv deadlock
// (paper Figure 2(a)) with the distributed tool.
//
//   $ ./examples/quickstart
//
// Walks through the full public API: create a simulation engine, a simulated
// MPI world, attach the tool, write a rank program as a coroutine, run, and
// inspect the deadlock report.
#include <cstdio>

#include "must/harness.hpp"
#include "support/strings.hpp"

using namespace wst;

// Each rank's program is a C++20 coroutine over the MPI-like API.
// Rank 0 and rank 1 both receive first — neither send can ever start.
sim::Task program(mpi::Proc& self) {
  const mpi::Rank partner = 1 - self.rank();
  co_await self.recv(partner, /*tag=*/0);   // blocks forever
  co_await self.send(partner, /*tag=*/0);   // never reached
  co_await self.finalize();
}

int main() {
  // 1. Discrete-event engine + simulated 2-rank MPI world.
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpi::RuntimeConfig{}, /*procCount=*/2);

  // 2. Attach the deadlock detection tool (TBON with fan-in 2; with 2 ranks
  //    the first-layer node doubles as the root).
  must::ToolConfig config;
  config.fanIn = 2;
  must::DistributedTool tool(engine, runtime, config);

  // 3. Run the application to completion (here: to the deadlock; the tool's
  //    timeout-triggered detection fires when the simulation quiesces).
  runtime.runToCompletion(program);

  // 4. Inspect the result.
  if (!tool.deadlockFound()) {
    std::printf("unexpected: no deadlock reported\n");
    return 1;
  }
  const wfg::Report& report = *tool.report();
  std::printf("%s\n\n", report.summary.c_str());
  std::printf("Deadlocked processes and their wait-for conditions:\n");
  for (const trace::ProcId proc : report.check.deadlocked) {
    std::printf("  rank %d blocked in this call\n", proc);
  }
  std::printf("\nDetection time breakdown:\n");
  std::printf("  synchronization : %s\n",
              support::formatDurationNs(report.times.synchronizationNs).c_str());
  std::printf("  WFG gather      : %s\n",
              support::formatDurationNs(report.times.wfgGatherNs).c_str());
  std::printf("  graph build     : %s\n",
              support::formatDurationNs(report.times.graphBuildNs).c_str());
  std::printf("  deadlock check  : %s\n",
              support::formatDurationNs(report.times.deadlockCheckNs).c_str());
  std::printf("  output          : %s\n",
              support::formatDurationNs(report.times.outputGenerationNs).c_str());
  std::printf("\nHTML report (%zu bytes) and DOT graph (%llu bytes) "
              "generated.\n",
              report.html.size(),
              static_cast<unsigned long long>(report.dotBytes));
  return 0;
}
