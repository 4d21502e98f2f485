// Run harness: execute a rank program with or without the tool attached and
// collect the outcome metrics the evaluation reports (virtual completion
// time for slowdown ratios, deadlock reports, detection time breakdowns,
// tool traffic, trace-window high-water marks).
#pragma once

#include <optional>
#include <string>

#include "mpi/proc.hpp"
#include "mpi/runtime.hpp"
#include "must/tool.hpp"
#include "sim/parallel_engine.hpp"

namespace wst::must {

struct HarnessResult {
  /// Virtual time when the run quiesced: for tooled runs this includes the
  /// tool draining its queues (MPI_Finalize in the real tool returns only
  /// once the analysis caught up) and any deadlock detection round.
  sim::Time completionTime = 0;
  /// Virtual time when the last rank reached MPI_Finalize (0 if deadlocked).
  sim::Time lastFinalize = 0;
  bool allFinalized = false;
  bool deadlockReported = false;
  std::optional<wfg::Report> report;
  std::uint32_t detections = 0;
  std::uint64_t appCalls = 0;
  std::uint64_t toolMessages = 0;
  /// Intralayer traffic: logical messages vs. physical channel messages
  /// (identical unless wait-state batching coalesced some).
  std::uint64_t intralayerMessages = 0;
  std::uint64_t intralayerChannelMessages = 0;
  std::uint64_t channelMessages = 0;  // all link classes
  std::size_t maxQueueDepth = 0;
  std::uint64_t transitions = 0;
  std::size_t maxWindow = 0;
  /// Full metrics registry dump (see MetricsRegistry::toJson); empty for
  /// reference runs.
  std::string metricsJson;
  /// Engine event-trace hash (see Scheduler::traceHash); byte-identical
  /// across ParallelEngine thread counts for the same workload.
  std::uint64_t traceHash = 0;
  std::uint64_t eventsExecuted = 0;

  double slowdownOver(const HarnessResult& reference) const {
    if (reference.completionTime == 0) return 0.0;
    return static_cast<double>(completionTime) /
           static_cast<double>(reference.completionTime);
  }
};

/// Run without any tool attached (the reference run of the evaluation).
inline HarnessResult runReference(std::int32_t procs,
                                  const mpi::RuntimeConfig& mpiConfig,
                                  const mpi::Runtime::Program& program) {
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpiConfig, procs);
  runtime.runToCompletion(program);
  HarnessResult result;
  result.allFinalized = runtime.allFinalized();
  result.completionTime = engine.now();
  result.lastFinalize = runtime.lastFinalizeTime();
  result.appCalls = runtime.totalCalls();
  return result;
}

/// Run with the distributed (or, with fanIn >= procs, centralized) tool.
inline HarnessResult runWithTool(std::int32_t procs,
                                 const mpi::RuntimeConfig& mpiConfig,
                                 const ToolConfig& toolConfig,
                                 const mpi::Runtime::Program& program) {
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpiConfig, procs);
  DistributedTool tool(engine, runtime, toolConfig);
  runtime.runToCompletion(program);
  HarnessResult result;
  result.allFinalized = runtime.allFinalized();
  result.completionTime = engine.now();
  result.lastFinalize = runtime.lastFinalizeTime();
  result.appCalls = runtime.totalCalls();
  result.deadlockReported = tool.deadlockFound();
  result.report = tool.report();
  result.detections = tool.detectionsRun();
  result.toolMessages = tool.overlay().totalMessages();
  result.intralayerMessages =
      tool.overlay().messages(tbon::LinkClass::kIntralayer);
  result.intralayerChannelMessages =
      tool.overlay().channelMessages(tbon::LinkClass::kIntralayer);
  result.channelMessages = tool.overlay().totalChannelMessages();
  result.maxQueueDepth = tool.overlay().maxQueueDepth();
  result.transitions = tool.totalTransitions();
  result.maxWindow = tool.maxWindowSize();
  result.traceHash = engine.traceHash();
  result.eventsExecuted = engine.eventsExecuted();
  result.metricsJson = tool.metricsJson();
  return result;
}

}  // namespace wst::must
