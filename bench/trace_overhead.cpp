// Guardrail for the flight recorder's disabled-path cost: every
// instrumentation site caches a TraceTrack* (nullptr when tracing is off)
// and checks it before evaluating any argument, so a run with no tracer —
// and a run with a constructed-but-disabled tracer — must cost the same
// wall time as the pre-tracing tool within measurement noise. The enabled
// configuration is reported alongside for scale (it pays for ring writes,
// typically a few percent).
//
// CI runs this with --benchmark_min_time to smooth scheduler noise and
// compares the real_time of NoTracer vs DisabledTracer.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>

#include "bench/common.hpp"
#include "sim/parallel_engine.hpp"
#include "support/tracing.hpp"
#include "workloads/stress.hpp"

namespace {

using namespace wst;

enum class Mode : std::int64_t { kNoTracer = 0, kDisabled = 1, kEnabled = 2 };

workloads::StressParams stressParams() {
  workloads::StressParams params;
  params.iterations = 40;
  params.bytes = 4;
  params.barrierEvery = 10;
  return params;
}

void BM_StressUnderTool(benchmark::State& state) {
  const auto mode = static_cast<Mode>(state.range(0));
  const std::int32_t procs = 32;
  const auto program = workloads::cyclicExchange(stressParams());
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::ParallelEngine engine;
    std::optional<support::Tracer> tracer;
    if (mode != Mode::kNoTracer) {
      support::Tracer::Config cfg;
      cfg.clock = [&engine] {
        return static_cast<std::uint64_t>(engine.now());
      };
      cfg.enabled = mode == Mode::kEnabled;
      tracer.emplace(cfg);
    }
    must::ToolConfig toolCfg = bench::distributedTool(4);
    if (tracer) toolCfg.tracer = &*tracer;
    mpi::Runtime runtime(engine, bench::sierraLike(), procs);
    if (tracer) runtime.setTracer(&*tracer);
    must::DistributedTool tool(engine, runtime, toolCfg);
    runtime.runToCompletion(program);
    benchmark::DoNotOptimize(engine.now());
    events = engine.eventsExecuted();
  }
  state.counters["events"] = static_cast<double>(events);
  state.SetLabel(mode == Mode::kNoTracer
                     ? "no tracer"
                     : (mode == Mode::kDisabled ? "tracer disabled"
                                                : "tracer enabled"));
}

BENCHMARK(BM_StressUnderTool)
    ->Arg(static_cast<std::int64_t>(Mode::kNoTracer))
    ->Arg(static_cast<std::int64_t>(Mode::kDisabled))
    ->Arg(static_cast<std::int64_t>(Mode::kEnabled))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
