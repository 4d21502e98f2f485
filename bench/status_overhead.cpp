// Guardrail for the telemetry plane's disabled-path cost (DESIGN.md §16):
// with ToolConfig::telemetry off the tool registers no extra instruments
// and every accounting site reduces to one predictable-false branch
// (procOverhead_ empty / timeline_ null / healthBeatInterval zero), so a
// run with telemetry off must cost the same wall time as the pre-telemetry
// tool within measurement noise. The enabled configurations are reported
// alongside for scale: per-round snapshots and health beats are paid in
// virtual time by design, so their wall-clock cost is the snapshot/diff
// work only.
//
// CI compares the real_time of Off vs the tracked baseline and fails the
// smoke run on a large regression (see .github/workflows/ci.yml).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench/common.hpp"
#include "sim/parallel_engine.hpp"
#include "workloads/stress.hpp"

namespace {

using namespace wst;

enum class Mode : std::int64_t {
  kOff = 0,       // no telemetry at all — the guarded path
  kTimeline = 1,  // timeline + overhead accounting
  kFull = 2,      // timeline + overhead + health beats
};

workloads::StressParams stressParams() {
  workloads::StressParams params;
  params.iterations = 40;
  params.bytes = 4;
  params.barrierEvery = 10;
  return params;
}

void BM_StressTelemetry(benchmark::State& state) {
  const auto mode = static_cast<Mode>(state.range(0));
  const std::int32_t procs = 32;
  const auto program = workloads::cyclicExchange(stressParams());
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::ParallelEngine engine;
    must::ToolConfig toolCfg = bench::distributedTool(4);
    toolCfg.periodicDetection = 2'000'000;
    if (mode != Mode::kOff) toolCfg.telemetry = true;
    if (mode == Mode::kFull) toolCfg.healthBeatInterval = 500'000;
    mpi::Runtime runtime(engine, bench::sierraLike(), procs);
    must::DistributedTool tool(engine, runtime, toolCfg);
    runtime.runToCompletion(program);
    if (mode != Mode::kOff) tool.finalizeTelemetry();
    benchmark::DoNotOptimize(engine.now());
    events = engine.eventsExecuted();
  }
  state.counters["events"] = static_cast<double>(events);
  state.SetLabel(mode == Mode::kOff
                     ? "telemetry off"
                     : (mode == Mode::kTimeline ? "timeline+overhead"
                                                : "timeline+overhead+beats"));
}

BENCHMARK(BM_StressTelemetry)
    ->Arg(static_cast<std::int64_t>(Mode::kOff))
    ->Arg(static_cast<std::int64_t>(Mode::kTimeline))
    ->Arg(static_cast<std::int64_t>(Mode::kFull))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
