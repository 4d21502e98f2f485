// Multi-session serving throughput (`wst serve`, DESIGN.md §17): how many
// co-scheduled sessions per second the ServeServer sustains, and the tail
// of the per-session detection latency, at 64 concurrent sessions.
//
//  * BM_ServeThroughput — 64 fuzz-scenario sessions (seeds 1..64, the same
//    zero-overhead tool configuration the differential oracle uses) run to
//    completion through one ServeServer per iteration. Reported counters:
//    sessions/sec (wall-clock) and the p50/p99 of the sessions' virtual
//    detection latency (submission to terminal verdict on the session's own
//    clock — deterministic, so the percentiles double as a regression pin
//    on scheduling fairness: a starved session would stretch p99 rounds,
//    not its virtual latency, which is why rounds_p99 is reported too).
//  * Thread counts 1/2/4 share the session mix, so the rows compare pool
//    scheduling overhead, not workload differences. The committed
//    BENCH_serve.json records the one-core container numbers (parity, not
//    speedup); the CI bench-smoke job re-measures on multi-core runners.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/scenario.hpp"
#include "must/serve.hpp"
#include "support/strings.hpp"

namespace {

using namespace wst;

constexpr std::int32_t kSessions = 64;

must::SessionSpec makeSpec(std::int32_t index) {
  const auto seed = static_cast<std::uint64_t>(index + 1);
  return fuzz::sessionSpec(
      support::format("s%03d", index),
      std::make_shared<const fuzz::Scenario>(fuzz::makeScenario(seed)));
}

template <typename T>
T percentile(std::vector<T> values, double p) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

void BM_ServeThroughput(benchmark::State& state) {
  const auto threads = static_cast<std::int32_t>(state.range(0));
  std::vector<must::SessionSpec> specs;
  for (std::int32_t i = 0; i < kSessions; ++i) specs.push_back(makeSpec(i));

  std::vector<sim::Time> latencies;
  std::vector<std::uint64_t> rounds;
  std::uint64_t deadlocks = 0;
  for (auto _ : state) {
    must::ServeServer::Config cfg;
    cfg.threads = threads;
    cfg.sessionCap = kSessions;  // all 64 genuinely concurrent
    cfg.sliceEvents = 256;
    must::ServeServer server(cfg);
    for (const must::SessionSpec& spec : specs) server.submit(spec);
    server.run();
    latencies.clear();
    rounds.clear();
    deadlocks = server.deadlocks();
    for (const must::SessionResult& r : server.results()) {
      latencies.push_back(r.completionTime);
      rounds.push_back(r.rounds);
    }
  }
  state.SetItemsProcessed(state.iterations() * kSessions);
  state.counters["sessions_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kSessions),
      benchmark::Counter::kIsRate);
  state.counters["detect_p50_ns"] =
      static_cast<double>(percentile(latencies, 0.50));
  state.counters["detect_p99_ns"] =
      static_cast<double>(percentile(latencies, 0.99));
  state.counters["rounds_p99"] =
      static_cast<double>(percentile(rounds, 0.99));
  state.counters["deadlock_sessions"] = static_cast<double>(deadlocks);
}
BENCHMARK(BM_ServeThroughput)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
