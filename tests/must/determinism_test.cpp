// Determinism of the parallel conservative engine at the tool level: for a
// fixed workload, verdicts, wait-for-graph DOT output, the full metrics JSON
// dump, and the engine's event-trace hash must be byte-identical for any
// worker thread count (ISSUE: the primary acceptance witness of the
// parallel engine).
#include <gtest/gtest.h>

#include <string>

#include "must/harness.hpp"
#include "sim/parallel_engine.hpp"
#include "support/trace_export.hpp"
#include "support/tracing.hpp"
#include "wfg/graph.hpp"
#include "workloads/stress.hpp"

namespace wst::must {
namespace {

struct RunOutput {
  bool deadlock = false;
  std::string summary;   // verdict line ("none" if no detection ran)
  std::string dot;       // rebuilt WFG DOT (empty unless deadlocked)
  std::string metricsJson;
  std::string traceJson;  // flight-recorder export (Chrome trace JSON)
  std::uint64_t traceHash = 0;
  std::uint64_t events = 0;
  sim::Time completionTime = 0;
};

RunOutput runScenario(std::int32_t threads, std::int32_t procs,
                      const mpi::RuntimeConfig& mpiCfg,
                      const ToolConfig& toolCfg,
                      const mpi::Runtime::Program& program) {
  sim::ParallelEngine engine(threads);
  support::Tracer::Config traceCfg;
  traceCfg.clock = [&engine] {
    return static_cast<std::uint64_t>(engine.now());
  };
  support::Tracer tracer(traceCfg);
  engine.setTraceTrack(
      tracer.track(support::TrackKind::kEngine, 0, "engine"));
  ToolConfig tracedToolCfg = toolCfg;
  tracedToolCfg.tracer = &tracer;
  mpi::Runtime runtime(engine, mpiCfg, procs);
  runtime.setTracer(&tracer);
  DistributedTool tool(engine, runtime, tracedToolCfg);
  runtime.runToCompletion(program);
  engine.publishMetrics(tool.metrics(), /*includePerWorker=*/false);

  RunOutput out;
  out.deadlock = tool.deadlockFound();
  out.summary = tool.report() ? tool.report()->summary : "none";
  out.metricsJson = tool.metricsJson();
  out.traceJson = support::toChromeTraceJson(tracer);
  out.traceHash = engine.traceHash();
  out.events = engine.eventsExecuted();
  out.completionTime = engine.now();
  if (tool.deadlockFound()) {
    tool.terminalGraph().writeDot([&](std::string_view s) { out.dot += s; },
                                  tool.report()->check.deadlocked);
  }
  return out;
}

void expectIdentical(const RunOutput& base, const RunOutput& other,
                     std::int32_t threads) {
  EXPECT_EQ(base.deadlock, other.deadlock) << "threads=" << threads;
  EXPECT_EQ(base.summary, other.summary) << "threads=" << threads;
  EXPECT_EQ(base.dot, other.dot) << "threads=" << threads;
  EXPECT_EQ(base.metricsJson, other.metricsJson) << "threads=" << threads;
  EXPECT_EQ(base.traceJson, other.traceJson) << "threads=" << threads;
  EXPECT_FALSE(base.traceJson.empty());
  EXPECT_EQ(base.traceHash, other.traceHash) << "threads=" << threads;
  EXPECT_EQ(base.events, other.events) << "threads=" << threads;
  EXPECT_EQ(base.completionTime, other.completionTime)
      << "threads=" << threads;
}

TEST(ParallelDeterminism, StressWorkloadIsByteIdenticalAcrossThreadCounts) {
  workloads::StressParams params;
  params.iterations = 20;
  params.neighborDistance = 4;  // cross node boundaries (fan-in 4)
  const auto program = workloads::cyclicExchange(params);
  const mpi::RuntimeConfig mpiCfg;
  ToolConfig toolCfg;
  toolCfg.fanIn = 4;

  const RunOutput base = runScenario(1, 16, mpiCfg, toolCfg, program);
  EXPECT_FALSE(base.deadlock);
  EXPECT_GT(base.events, 0u);
  for (const std::int32_t threads : {2, 4}) {
    expectIdentical(base, runScenario(threads, 16, mpiCfg, toolCfg, program),
                    threads);
  }
}

TEST(ParallelDeterminism, BatchedStressIsByteIdenticalAcrossThreadCounts) {
  workloads::StressParams params;
  params.iterations = 15;
  params.neighborDistance = 2;
  const auto program = workloads::cyclicExchange(params);
  const mpi::RuntimeConfig mpiCfg;
  ToolConfig toolCfg;
  toolCfg.fanIn = 2;
  toolCfg.batchWaitState = true;
  toolCfg.prioritizeWaitState = true;

  const RunOutput base = runScenario(1, 8, mpiCfg, toolCfg, program);
  for (const std::int32_t threads : {2, 4}) {
    expectIdentical(base, runScenario(threads, 8, mpiCfg, toolCfg, program),
                    threads);
  }
}

TEST(ParallelDeterminism, WildcardDeadlockIsByteIdenticalAcrossThreadCounts) {
  const auto program = workloads::wildcardDeadlock();
  const mpi::RuntimeConfig mpiCfg;
  ToolConfig toolCfg;
  toolCfg.fanIn = 4;

  const RunOutput base = runScenario(1, 12, mpiCfg, toolCfg, program);
  EXPECT_TRUE(base.deadlock);
  EXPECT_FALSE(base.dot.empty());
  for (const std::int32_t threads : {2, 4}) {
    expectIdentical(base, runScenario(threads, 12, mpiCfg, toolCfg, program),
                    threads);
  }
}

TEST(ParallelDeterminism, HierarchicalCheckIsByteIdenticalAcrossThreadCounts) {
  // The in-tree check's condensed replies, boundary resolution and
  // deadlock-detail phase run on the same engine: their trace, the metrics
  // (boundary gauges and telemetry overhead buckets included) and the DOT
  // must not depend on the worker count either.
  const auto program = workloads::wildcardDeadlock();
  const mpi::RuntimeConfig mpiCfg;
  ToolConfig toolCfg;
  toolCfg.fanIn = 2;
  toolCfg.hierarchicalCheck = true;
  toolCfg.telemetry = true;

  const RunOutput base = runScenario(1, 16, mpiCfg, toolCfg, program);
  EXPECT_TRUE(base.deadlock);
  EXPECT_NE(base.metricsJson.find("tool/last_round/boundary_nodes"),
            std::string::npos);
  EXPECT_NE(base.traceJson.find("boundaryCheck"), std::string::npos);
  for (const std::int32_t threads : {2, 4}) {
    expectIdentical(base, runScenario(threads, 16, mpiCfg, toolCfg, program),
                    threads);
  }
}

TEST(ParallelDeterminism, PeriodicDetectionIsByteIdenticalAcrossThreadCounts) {
  // Periodic detection now runs on the root node's LP (no cross-LP reads),
  // so multi-round incremental detection must stay byte-identical for any
  // worker count — including delta gathers and the root's re-pruned
  // persistent graph.
  workloads::StressParams params;
  params.iterations = 25;
  params.neighborDistance = 4;
  params.activeRanks = 8;  // idle ranks give the delta gather stable states
  const auto program = workloads::cyclicExchange(params);
  const mpi::RuntimeConfig mpiCfg;
  ToolConfig toolCfg;
  toolCfg.fanIn = 4;
  toolCfg.periodicDetection = 100 * sim::kMicrosecond;
  toolCfg.verify = true;

  const RunOutput base = runScenario(1, 16, mpiCfg, toolCfg, program);
  EXPECT_FALSE(base.deadlock);
  EXPECT_GT(base.events, 0u);
  for (const std::int32_t threads : {2, 4}) {
    expectIdentical(base, runScenario(threads, 16, mpiCfg, toolCfg, program),
                    threads);
  }
}

TEST(ParallelDeterminism, PeriodicBatchedStressIsByteIdenticalAcrossThreads) {
  workloads::StressParams params;
  params.iterations = 15;
  params.neighborDistance = 2;
  const auto program = workloads::cyclicExchange(params);
  const mpi::RuntimeConfig mpiCfg;
  ToolConfig toolCfg;
  toolCfg.fanIn = 2;
  toolCfg.batchWaitState = true;
  toolCfg.periodicDetection = 150 * sim::kMicrosecond;
  toolCfg.verify = true;

  const RunOutput base = runScenario(1, 8, mpiCfg, toolCfg, program);
  for (const std::int32_t threads : {2, 4}) {
    expectIdentical(base, runScenario(threads, 8, mpiCfg, toolCfg, program),
                    threads);
  }
}

TEST(ParallelDeterminism, ThreadsBeyondLpCountAreByteIdentical) {
  // 8 procs at fan-in 4 build a small overlay (few tool-node LPs), so
  // --threads 8 exceeds the LP count: the engine clamps the shard count to
  // the LPs and must still be byte-identical with the 1- and 2-thread runs.
  workloads::StressParams params;
  params.iterations = 12;
  params.neighborDistance = 4;
  const auto program = workloads::cyclicExchange(params);
  const mpi::RuntimeConfig mpiCfg;
  ToolConfig toolCfg;
  toolCfg.fanIn = 4;

  const RunOutput base = runScenario(1, 8, mpiCfg, toolCfg, program);
  EXPECT_FALSE(base.deadlock);
  for (const std::int32_t threads : {2, 8}) {
    expectIdentical(base, runScenario(threads, 8, mpiCfg, toolCfg, program),
                    threads);
  }
}

}  // namespace
}  // namespace wst::must
