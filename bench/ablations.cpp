// Ablation benchmarks for the design choices DESIGN.md §5 calls out:
//
//  * WFG output compression (paper §6 future work): full p²-arc DOT emission
//    vs the class-compressed graph;
//  * detection frequency: timeout-style rare detection vs frequent periodic
//    detection (the paper's motivation for wait state analysis was avoiding
//    a graph search per operation);
//  * wait-state message priority (paper §6 future work): trace-window
//    high-water on the high-call-rate GAPgeofem proxy;
//  * blocking model: conservative vs implementation-faithful on the unsafe
//    send-send pattern;
//  * tool channel credits: back-pressure strength vs slowdown on the stress
//    test.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/common.hpp"
#include "must/recorder.hpp"
#include "sim/parallel_engine.hpp"
#include "waitstate/transition_system.hpp"
#include "wfg/compress.hpp"
#include "workloads/spec.hpp"
#include "workloads/stress.hpp"

namespace {

using namespace wst;

// --- WFG output: full vs compressed -----------------------------------------

void BM_WfgOutputFull(benchmark::State& state) {
  const auto procs = static_cast<std::int32_t>(state.range(0));
  const auto result =
      must::runWithTool(procs, bench::sierraLike(), bench::distributedTool(4),
                        workloads::wildcardDeadlock());
  if (!result.deadlockReported) {
    state.SkipWithError("no deadlock");
    return;
  }
  // Re-run the emission step alone, wall-clock measured.
  // (The report already emitted once; we measure a fresh emission.)
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t bytes = result.report->dotBytes;
    benchmark::DoNotOptimize(bytes);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(
        static_cast<double>(result.report->times.outputGenerationNs) / 1e9 +
        std::chrono::duration<double>(t1 - t0).count() * 0);
  }
  state.counters["dot_MB"] = static_cast<double>(result.report->dotBytes) / 1e6;
  state.counters["arcs"] = static_cast<double>(result.report->check.arcCount);
}

void BM_WfgOutputCompressed(benchmark::State& state) {
  const auto procs = static_cast<std::int32_t>(state.range(0));
  // Build the same graph via the formal system (cheaper than a full tool
  // run and identical structure).
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, bench::sierraLike(), procs);
  must::Recorder recorder(runtime);
  runtime.runToCompletion(workloads::wildcardDeadlock());
  const trace::MatchedTrace trace = recorder.finish();
  waitstate::TransitionSystem ts(trace);
  ts.runToTerminal();
  const wfg::WaitForGraph graph = ts.buildWaitForGraph();

  std::uint64_t bytes = 0;
  std::size_t classes = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const wfg::CompressedGraph compressed = wfg::compress(graph);
    bytes = compressed.writeDot([](std::string_view) {});
    classes = compressed.classes.size();
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.counters["dot_KB"] = static_cast<double>(bytes) / 1e3;
  state.counters["classes"] = static_cast<double>(classes);
  state.counters["arcs_represented"] =
      static_cast<double>(wfg::compress(graph).representedArcs);
}

BENCHMARK(BM_WfgOutputFull)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"p"});
BENCHMARK(BM_WfgOutputCompressed)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"p"});

// --- Detection frequency ------------------------------------------------------

void BM_DetectionFrequency(benchmark::State& state) {
  const auto periodMs = state.range(0);  // 0 = quiescence-only (timeout)
  const std::int32_t procs = 64;
  workloads::StressParams params;
  params.iterations = 100;
  const auto program = workloads::cyclicExchange(params);
  const auto ref = must::runReference(procs, bench::sierraLike(), program);
  must::ToolConfig cfg = bench::distributedTool(4);
  cfg.periodicDetection =
      periodMs == 0 ? 0 : static_cast<sim::Duration>(periodMs) * 100'000;
  must::HarnessResult tooled;
  for (auto _ : state) {
    tooled = must::runWithTool(procs, bench::sierraLike(), cfg, program);
  }
  state.SetIterationTime(sim::toSeconds(tooled.completionTime));
  state.counters["slowdown"] = tooled.slowdownOver(ref);
  state.counters["detections"] = tooled.detections;
}

BENCHMARK(BM_DetectionFrequency)
    ->Arg(0)    // timeout-triggered only (the paper's choice)
    ->Arg(100)  // every 10 virtual ms
    ->Arg(10)   // every 1 virtual ms
    ->Arg(1)    // every 100 virtual us — approaching per-operation checking
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"period_x100us"});

// --- Wait-state message priority -----------------------------------------------

void BM_TraceWindowPriority(benchmark::State& state) {
  const bool prioritize = state.range(0) != 0;
  const workloads::SpecApp* app = workloads::findSpecApp("128.GAPgeofem");
  workloads::SpecScale scale;
  scale.iterations = 10;
  scale.computeScale = 1.0;
  must::ToolConfig cfg = bench::distributedTool(4);
  cfg.prioritizeWaitState = prioritize;
  must::HarnessResult result;
  for (auto _ : state) {
    result = must::runWithTool(64, bench::sierraLike(), cfg,
                               app->make(scale));
  }
  state.SetIterationTime(sim::toSeconds(result.completionTime));
  state.counters["max_window"] = static_cast<double>(result.maxWindow);
}

BENCHMARK(BM_TraceWindowPriority)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"prioritized"});

// --- Blocking model ---------------------------------------------------------------

void BM_BlockingModel(benchmark::State& state) {
  const bool faithful = state.range(0) != 0;
  const workloads::SpecApp* app = workloads::findSpecApp("126.lammps");
  workloads::SpecScale scale;
  scale.iterations = 10;
  scale.computeScale = 1.0;
  must::ToolConfig cfg = bench::distributedTool(4);
  cfg.blockingModel = faithful
                          ? trace::BlockingModel::kImplementationFaithful
                          : trace::BlockingModel::kConservative;
  must::HarnessResult result;
  for (auto _ : state) {
    result = must::runWithTool(64, bench::sierraLike(), cfg,
                               app->make(scale));
  }
  state.SetIterationTime(sim::toSeconds(result.completionTime));
  state.counters["deadlock_reported"] = result.deadlockReported ? 1 : 0;
  state.counters["max_window"] = static_cast<double>(result.maxWindow);
}

BENCHMARK(BM_BlockingModel)
    ->Arg(0)  // conservative (paper): reports the potential deadlock
    ->Arg(1)  // implementation-faithful: silent, windows stay tiny
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"faithful"});

// --- Engine parallelism ------------------------------------------------------------

// Worker-count sweep of the parallel conservative engine on a fixed tooled
// stress run, wall-clock measured (no UseManualTime). The interesting
// ablation outputs are the round/stall counters: lookahead is the minimum
// cross-LP channel latency, so the round count is a property of the event
// timeline, not of the worker count — only wall time should move.
void BM_EngineThreads(benchmark::State& state) {
  const auto threads = static_cast<std::int32_t>(state.range(0));
  const std::int32_t procs = 256;
  workloads::StressParams params;
  params.iterations = 50;
  params.neighborDistance = 4;  // cross node boundaries at fan-in 4
  const auto program = workloads::cyclicExchange(params);
  const mpi::RuntimeConfig mpiCfg = bench::sierraLike();
  const must::ToolConfig toolCfg = bench::distributedTool(4);
  std::uint64_t events = 0;
  sim::ParallelEngine::Stats stats;
  for (auto _ : state) {
    sim::ParallelEngine engine(threads);
    mpi::Runtime runtime(engine, mpiCfg, procs);
    must::DistributedTool tool(engine, runtime, toolCfg);
    runtime.runToCompletion(program);
    benchmark::DoNotOptimize(tool.deadlockFound());
    events = engine.eventsExecuted();
    stats = engine.stats();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
  state.counters["events"] = static_cast<double>(events);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["horizon_stalls"] = static_cast<double>(stats.horizonStalls);
  state.counters["cross_lp"] = static_cast<double>(stats.crossLpEvents);
  state.counters["mailbox_hw"] =
      static_cast<double>(stats.mailboxHighWater);
}

BENCHMARK(BM_EngineThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"threads"});

// --- Channel credits ---------------------------------------------------------------

void BM_ChannelCredits(benchmark::State& state) {
  const auto credits = static_cast<std::uint32_t>(state.range(0));
  const std::int32_t procs = 64;
  workloads::StressParams params;
  params.iterations = 100;
  const auto program = workloads::cyclicExchange(params);
  const auto ref = must::runReference(procs, bench::sierraLike(), program);
  must::ToolConfig cfg = bench::distributedTool(4);
  cfg.overlay.appToLeaf.credits = credits;
  must::HarnessResult tooled;
  for (auto _ : state) {
    tooled = must::runWithTool(procs, bench::sierraLike(), cfg, program);
  }
  state.SetIterationTime(sim::toSeconds(tooled.completionTime));
  // Total completion (incl. tool drain) is work-conserving and barely
  // depends on credits; what credits control is how much of the tool's
  // backlog the *application* is exposed to before its own finalize.
  state.counters["total_slowdown"] = tooled.slowdownOver(ref);
  state.counters["app_visible_slowdown"] =
      static_cast<double>(tooled.lastFinalize) /
      static_cast<double>(ref.lastFinalize);
}

BENCHMARK(BM_ChannelCredits)
    ->Arg(0)  // unbounded buffering: app never blocks, tool drains later
    ->Arg(8)
    ->Arg(64)
    ->Arg(512)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"credits"});

}  // namespace

BENCHMARK_MAIN();
