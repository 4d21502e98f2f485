// Per-round detection latency of periodic deadlock checks: full gather +
// cold check on every round vs. the incremental pipeline (delta wait-info
// gather, TBON merge, persistent WFG with warm-started release fixpoint —
// DESIGN.md §10).
//
// The workload is the straggler variant of the cyclic-exchange stress test:
// p/4 ranks churn through sendrecv iterations while the rest block in one
// stable Recv. A full gather ships all p NodeConditions up the tree every
// round and pays tree-link serialization (perByte) for each; the delta
// gather re-ships only the churning quarter, so steady-state rounds shrink
// both the gather latency and the root's rebuild work.
//
// Convention (as in fig10): synchronization + gather are simulated virtual
// time, graph build + deadlock check are measured wall time at the root.
// Reported per-round figures average the steady-state rounds (all but the
// first, which is always a full gather, and the last, which re-gathers the
// unblocked stragglers).
//
// Set WST_VERIFY_INCREMENTAL=1 to run the side-by-side verifier in every
// round (CI smoke): the `verify_divergences` counter must stay 0.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

#include "bench/common.hpp"
#include "workloads/stress.hpp"

namespace {

using namespace wst;

struct RoundsOutcome {
  std::vector<must::DistributedTool::RoundStats> rounds;
  std::uint64_t gatherSavedBytes = 0;
  std::uint32_t divergences = 0;
  bool deadlock = false;
};

RoundsOutcome runRounds(std::int32_t procs, bool incremental) {
  workloads::StressParams params;
  params.iterations = 300;
  params.neighborDistance = 8;  // = fan-in: handshakes cross node boundaries
  params.activeRanks = procs / 4;

  must::ToolConfig cfg = bench::distributedTool(8);
  cfg.incrementalGather = incremental;
  cfg.periodicDetection = 500 * sim::kMicrosecond;
  cfg.verifyIncremental = std::getenv("WST_VERIFY_INCREMENTAL") != nullptr;

  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, bench::sierraLike(), procs);
  must::DistributedTool tool(engine, runtime, cfg);
  runtime.runToCompletion(workloads::cyclicExchange(params));

  RoundsOutcome out;
  out.rounds = tool.roundHistory();
  out.gatherSavedBytes =
      tool.metrics().counter("tool/gather_saved_bytes").value();
  out.divergences = tool.verifyDivergences();
  out.deadlock = tool.deadlockFound();
  return out;
}

double roundNs(const must::DistributedTool::RoundStats& r) {
  return static_cast<double>(r.syncNs + r.gatherNs + r.buildNs + r.checkNs);
}

void BM_DetectionRounds(benchmark::State& state) {
  const auto procs = static_cast<std::int32_t>(state.range(0));
  const bool incremental = state.range(1) != 0;
  RoundsOutcome out;
  for (auto _ : state) {
    out = runRounds(procs, incremental);
  }
  if (out.deadlock) {
    state.SkipWithError("unexpected deadlock verdict");
    return;
  }
  if (out.rounds.size() < 3) {
    state.SkipWithError("needs >= 3 periodic rounds");
    return;
  }

  double totalNs = 0;
  for (const auto& r : out.rounds) totalNs += roundNs(r);
  double steadyNs = 0;
  double steadyConditions = 0;
  const std::size_t steady = out.rounds.size() - 2;
  for (std::size_t i = 1; i + 1 < out.rounds.size(); ++i) {
    steadyNs += roundNs(out.rounds[i]);
    steadyConditions += static_cast<double>(out.rounds[i].changed);
  }

  state.SetIterationTime(sim::toSeconds(static_cast<sim::Time>(totalNs)));
  state.counters["rounds"] = static_cast<double>(out.rounds.size());
  state.counters["first_round_ms"] = roundNs(out.rounds.front()) / 1e6;
  state.counters["steady_round_ms"] =
      steadyNs / static_cast<double>(steady) / 1e6;
  state.counters["steady_conditions"] =
      steadyConditions / static_cast<double>(steady);
  state.counters["full_conditions"] = static_cast<double>(procs);
  state.counters["gather_saved_KB"] =
      static_cast<double>(out.gatherSavedBytes) / 1e3;
  state.counters["verify_divergences"] =
      static_cast<double>(out.divergences);
}

BENCHMARK(BM_DetectionRounds)
    ->ArgsProduct({{16, 32, 64, 128, 256}, {0, 1}})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"p", "inc"});

}  // namespace

BENCHMARK_MAIN();
