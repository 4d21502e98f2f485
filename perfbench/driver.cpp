// The repo benchmark: one single-process driver for three workloads.
//
//   perfbench_driver --workload stress|wildcard|serve --seed N --seconds S
//                    --trace 0|1
//
// With --trace 0 it runs a warm-up pass, then timed passes for S seconds, and
// prints the end-to-end metrics (from the fastest timed pass). With
// --trace 1 it alternates untraced and traced passes (stress adds a
// two-shard pass) and prints the per-layer table instead (medians over the
// traced passes), plus trace_overhead = traced / untraced pass wall. Every
// pass's output is checked; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. README.md records why each
// workload was chosen and what every metric means.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/common.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/interpreter.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/scenario.hpp"
#include "layers.hpp"
#include "must/harness.hpp"
#include "must/serve.hpp"
#include "sim/parallel_engine.hpp"
#include "support/strings.hpp"
#include "wfg/report.hpp"
#include "workloads/stress.hpp"

namespace wst::perfbench {
namespace {

// --- Workload definitions (rationale: README.md) ------------------------------

/// stress (paper Fig. 9) and wildcard (paper Fig. 10) run at this scale with
/// the fig09/fig10 configuration of bench/common.hpp, on a one-thread
/// ParallelEngine (the `wst run` default). A two-shard stress pass swung
/// 1.5-2.8 s between 30-s runs on the shared 4-vCPU host (the waiting shard
/// sleeps at the spin barrier and its wake-up depends on the host) while one
/// thread stayed within ±3 %, so the two-shard path is measured in the
/// traced run only (sim.two_shard_*), where no bound applies.
constexpr std::int32_t kProcs = 2048;
constexpr std::int32_t kFanIn = 4;
constexpr std::int32_t kTwoShards = 2;

/// serve: `wst serve`'s session mix as a closed loop of kServeCap sessions.
constexpr std::int32_t kServeSessions = 4096;
constexpr std::int32_t kServeCap = 64;
constexpr std::uint64_t kServeSlice = 256;
constexpr std::int32_t kServeThreads = 1;
/// Sessions whose verdicts are compared against `wst serve` itself.
constexpr std::int32_t kParitySessions = 64;

/// An untimed pass before measuring: the first pass of a fresh process runs
/// slower (page faults, cold allocator).
constexpr int kWarmupPasses = 1;
constexpr std::size_t kMinPasses = 3;
/// stress/wildcard set-up takes about a millisecond, so after each timed pass
/// the stack is also built (and torn down) this many extra times; setup_s is
/// the fastest set-up of the run. More samples gave a steadier minimum for
/// these workloads, but not for serve's 10-30 ms set-up.
constexpr int kPaperSetupRepeats = 8;

/// Paper Fig. 9 stress program, exactly as fig09_stress_slowdown runs it.
workloads::StressParams stressParams() {
  workloads::StressParams params;
  params.iterations = 50;
  params.bytes = 4;
  params.barrierEvery = 10;
  return params;
}

/// Field-for-field mirror of makeServeSession in tools/wst.cpp (the parity
/// check against `wst serve` guards it).
must::SessionSpec makeServeSession(std::int32_t index, std::uint64_t seed,
                                   std::shared_ptr<const fuzz::Scenario> scenario) {
  must::SessionSpec spec;
  spec.name = support::format("s%03d-%016llx", index,
                              static_cast<unsigned long long>(seed));
  spec.procs = scenario->procs;
  spec.mpiConfig.ranksPerNode = 2;
  spec.tool.fanIn = scenario->fanIn;
  spec.tool.appEventCost = 0;
  spec.tool.overlay.appToLeaf.credits = 0;
  spec.tool.detectOnQuiescence = true;
  spec.tool.periodicDetection = scenario->periodic;
  spec.tool.detectionJitter = scenario->detectionJitter;
  spec.tool.detectionJitterSeed = scenario->seed + 1;
  spec.tool.maxPeriodicRounds = 64;
  spec.tool.consumedHistory = scenario->consumedHistory;
  spec.tool.overlay.intralayer.latency = scenario->latIntra;
  spec.tool.overlay.treeUp.latency = scenario->latUp;
  spec.tool.overlay.treeDown.latency = scenario->latDown;
  spec.program = fuzz::scenarioProgram(std::move(scenario));
  return spec;
}

// --- Small helpers ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile, as bench/serve_throughput.cpp reports it.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Named per-pass values; the report takes the median of each over passes.
using Values = std::map<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (tracing off), printed for every workload.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"sessions_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics (traced run), printed for every workload; a layer a
/// workload does not exercise or measure reads 0.
constexpr MetricDef kPerLayer[] = {
    {"trace_overhead", "ratio"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.self_s", "s"},
    {"sim.rounds", "count"},
    {"sim.horizon_stalls", "count"},
    {"sim.cross_lp_events", "count"},
    {"sim.lp0_event_share", "ratio"},
    {"sim.max_shard_event_share", "ratio"},
    {"sim.two_shard_wall_s", "s"},
    {"sim.two_shard_speedup", "ratio"},
    {"sim.serve_pool_s", "s"},
    {"mpi.calls", "count"},
    {"mpi.app_s", "s"},
    {"mpi.ns_per_call", "ns"},
    {"mpi.untooled_wall_s", "s"},
    {"waitstate.leaf_s", "s"},
    {"waitstate.transitions", "count"},
    {"waitstate.ns_per_transition", "ns"},
    {"waitstate.max_window", "count"},
    {"waitstate.consumed_evictions", "count"},
    {"waitstate.consumed_pinned", "count"},
    {"tbon.messages", "count"},
    {"tbon.channel_msgs_per_msg", "ratio"},
    {"tbon.up_mb", "MB"},
    {"tbon.max_queue_depth", "count"},
    {"tbon.service_time_p99_ns", "virtual_ns"},
    {"tbon.inner_s", "s"},
    {"must.onevent_s", "s"},
    {"must.onevent_calls", "count"},
    {"must.root_s", "s"},
    {"must.hook_s", "s"},
    {"must.detections", "count"},
    {"must.sync_virtual_ms", "virtual_ms"},
    {"must.gather_virtual_ms", "virtual_ms"},
    {"must.construct_s", "s"},
    {"must.session_run_s", "s"},
    {"wfg.build_s", "s"},
    {"wfg.check_s", "s"},
    {"wfg.output_s", "s"},
    {"wfg.dot_mb", "MB"},
    {"wfg.arcs", "count"},
    {"wfg.terminal_s", "s"},
    {"support.metrics_json_s", "s"},
    {"support.metrics_json_mb", "MB"},
    {"fuzz.generate_s", "s"},
    {"virtual_slowdown", "ratio"},
    {"detect_virtual_ms", "virtual_ms"},
    {"session_virtual_p50_ms", "virtual_ms"},
    {"session_virtual_p99_ms", "virtual_ms"},
    {"failed_frac", "ratio"},
};

/// What a pass does: only build the stack, or also run it: untraced, through
/// the layer decorators, or untraced on two engine shards.
enum class Mode { kSetupOnly, kPlain, kTraced, kTwoShards };

/// Outcome of one benchmark run (all passes of one workload).
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool consistent = true;  // schedule fingerprint identical across passes
  std::vector<Values> passes;        // timed (untraced run) or traced passes
  std::vector<double> setups;        // every set-up time of the run
  std::vector<double> untracedWall;  // traced run: the interleaved plain passes
  std::vector<Values> twoShard;      // traced run: the two-shard passes
  Values fixed;                      // per-run values (not per pass)
  std::string fingerprint;           // printed before the JSON line

  void fail(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
};

/// Register `hash` as this run's schedule fingerprint; every later pass must
/// reproduce it (traced passes included).
void checkHash(RunReport& report, std::optional<std::uint64_t>& expected,
               std::uint64_t hash) {
  if (!expected) {
    expected = hash;
  } else if (*expected != hash) {
    report.consistent = false;
    std::fprintf(stderr,
                 "perfbench: trace hash %016llx differs from %016llx\n",
                 static_cast<unsigned long long>(hash),
                 static_cast<unsigned long long>(*expected));
  }
}

// --- stress and wildcard: one simulation to verdict per pass ------------------

struct PaperWorkload {
  const char* name;
  mpi::Runtime::Program (*program)();
  bool expectDeadlock;
  /// The traced run also times two-shard passes (sim.two_shard_*).
  bool twoShardPasses;
};

mpi::Runtime::Program stressProgram() {
  return workloads::cyclicExchange(stressParams());
}
mpi::Runtime::Program wildcardProgram() {
  return workloads::wildcardDeadlock();
}

constexpr PaperWorkload kStress{"stress", &stressProgram, false, true};
constexpr PaperWorkload kWildcard{"wildcard", &wildcardProgram, true, false};

/// One pass: build the stack (setup_s), run it to its verdict (wall_s),
/// check the verdict. A traced pass routes the engine and the interposer
/// through the layer decorators and reads every layer's counters. `untooled`
/// is the program's (deterministic) run without the tool.
void paperPass(const PaperWorkload& w, const must::HarnessResult& untooled,
               Mode mode, RunReport& report,
               std::optional<std::uint64_t>& expectedHash, Values& out) {
  const bool traced = mode == Mode::kTraced;
  const auto t0 = Clock::now();
  const mpi::Runtime::Program program = w.program();
  sim::ParallelEngine engine(mode == Mode::kTwoShards ? kTwoShards : 1);
  std::optional<TimedScheduler> timedEngine;
  if (traced) timedEngine.emplace(engine);
  sim::Scheduler& sched =
      traced ? static_cast<sim::Scheduler&>(*timedEngine) : engine;
  mpi::Runtime runtime(sched, bench::sierraLike(), kProcs);
  const auto tTool = Clock::now();
  must::DistributedTool tool(sched, runtime, bench::distributedTool(kFanIn));
  const auto tToolEnd = Clock::now();
  std::optional<TimedInterposer> timedTool;
  if (traced) {
    timedTool.emplace(tool);
    runtime.setInterposer(&*timedTool);
  }
  const auto t1 = Clock::now();
  out["setup_s"] = secondsBetween(t0, t1);
  if (mode == Mode::kSetupOnly) return;
  runtime.runToCompletion(program);
  const auto t2 = Clock::now();

  const double wallS = secondsBetween(t1, t2);
  out["wall_s"] = wallS;
  out["sessions_per_s"] = 1.0 / wallS;

  ++report.attempted;
  const std::optional<wfg::Report>& verdict = tool.report();
  if (w.expectDeadlock) {
    const std::uint64_t arcs =
        static_cast<std::uint64_t>(kProcs) * (kProcs - 1);
    if (!tool.deadlockFound()) {
      report.fail(support::format("%s: no deadlock reported", w.name));
    } else if (verdict->check.deadlocked.size() !=
               static_cast<std::size_t>(kProcs)) {
      report.fail(support::format("%s: %zu of %d ranks deadlocked", w.name,
                                  verdict->check.deadlocked.size(), kProcs));
    } else if (verdict->check.arcCount != arcs) {
      report.fail(support::format(
          "%s: %llu arcs, expected %llu", w.name,
          static_cast<unsigned long long>(verdict->check.arcCount),
          static_cast<unsigned long long>(arcs)));
    }
  } else if (tool.deadlockFound()) {
    report.fail(support::format("%s: deadlock reported", w.name));
  } else if (!runtime.allFinalized()) {
    report.fail(support::format("%s: not every rank finalized", w.name));
  }
  checkHash(report, expectedHash, engine.traceHash());

  if (report.fingerprint.empty()) {
    double detectMs = 0;
    if (verdict) {
      detectMs = static_cast<double>(verdict->times.synchronizationNs +
                                     verdict->times.wfgGatherNs) /
                 1e6;
    }
    const double slowdown = ratio(static_cast<double>(engine.now()),
                                  static_cast<double>(untooled.completionTime));
    report.fixed["virtual_slowdown"] = w.expectDeadlock ? 0.0 : slowdown;
    report.fixed["detect_virtual_ms"] = detectMs;
    report.fingerprint = support::format(
        "fingerprint %s: trace_hash=%016llx events=%llu verdict=%s "
        "virtual_slowdown=%.3f detect_virtual_ms=%.3f arcs=%llu",
        w.name, static_cast<unsigned long long>(engine.traceHash()),
        static_cast<unsigned long long>(engine.eventsExecuted()),
        tool.deadlockFound() ? "deadlock" : "clean",
        report.fixed["virtual_slowdown"], detectMs,
        static_cast<unsigned long long>(verdict ? verdict->check.arcCount : 0));
  }
  if (mode == Mode::kTwoShards) {
    const sim::ParallelEngine::Stats stats = engine.stats();
    std::uint64_t total = 0, busiest = 0;
    for (const std::uint64_t e : stats.workerEvents) {
      total += e;
      busiest = std::max(busiest, e);
    }
    out["sim.max_shard_event_share"] =
        ratio(static_cast<double>(busiest), static_cast<double>(total));
  }
  if (!traced) return;

  // Layer split. LP 0 is the application world; every tool node has its
  // own LP, classified by the tool's topology.
  const auto tJson0 = Clock::now();
  const std::string metricsJson = tool.metricsJson();
  const auto tJson1 = Clock::now();
  const std::vector<TimedScheduler::LpSlot>& slots = timedEngine->slots();
  const tbon::Topology& topo = tool.topology();
  std::uint64_t leafNs = 0, innerNs = 0, rootNs = 0, busyNs = 0, events = 0;
  for (const TimedScheduler::LpSlot& slot : slots) {
    busyNs += slot.busyNs;
    events += slot.events;
  }
  for (tbon::NodeId n = 0; n < topo.nodeCount(); ++n) {
    const std::uint64_t ns =
        slots[static_cast<std::size_t>(tool.overlay().nodeLp(n))].busyNs;
    if (topo.isRoot(n)) {
      rootNs += ns;
    } else if (topo.isFirstLayer(n)) {
      leafNs += ns;
    } else {
      innerNs += ns;
    }
  }
  const std::uint64_t hookNs = timedEngine->hookNs() + timedEngine->cutNs();
  const std::uint64_t appNs = slots[sim::kMainLp].busyNs - timedTool->busyNs();
  const sim::ParallelEngine::Stats stats = engine.stats();
  const auto s = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e9; };
  const auto d = [](auto v) { return static_cast<double>(v); };
  std::uint64_t syncNs = 0, gatherNs = 0, buildNs = 0, checkNs = 0;
  for (const must::DistributedTool::RoundStats& round : tool.roundHistory()) {
    syncNs += round.syncNs;
    gatherNs += round.gatherNs;
    buildNs += round.buildNs;
    checkNs += round.checkNs;
  }
  support::MetricsRegistry& registry = tool.metrics();
  tbon::Overlay<must::ToolMsg>& overlay = tool.overlay();

  out["sim.events"] = d(engine.eventsExecuted());
  out["sim.self_s"] =
      d(engine.shardCount()) * wallS - s(busyNs) - s(hookNs);
  out["sim.rounds"] = d(stats.rounds);
  out["sim.horizon_stalls"] = d(stats.horizonStalls);
  out["sim.cross_lp_events"] = d(stats.crossLpEvents);
  out["sim.lp0_event_share"] = ratio(d(slots[sim::kMainLp].events), d(events));
  out["mpi.calls"] = d(runtime.totalCalls());
  out["mpi.app_s"] = s(appNs);
  out["mpi.ns_per_call"] = ratio(d(appNs), d(runtime.totalCalls()));
  out["waitstate.leaf_s"] = s(leafNs);
  out["waitstate.transitions"] = d(tool.totalTransitions());
  out["waitstate.ns_per_transition"] =
      ratio(d(leafNs), d(tool.totalTransitions()));
  out["waitstate.max_window"] = d(tool.maxWindowSize());
  out["waitstate.consumed_evictions"] =
      d(registry.counter("tracker/consumed_evictions").value());
  out["waitstate.consumed_pinned"] =
      d(registry.counter("tracker/consumed_pinned").value());
  out["tbon.messages"] = d(overlay.totalMessages());
  out["tbon.channel_msgs_per_msg"] =
      ratio(d(overlay.totalChannelMessages()), d(overlay.totalMessages()));
  out["tbon.up_mb"] = d(overlay.bytes(tbon::LinkClass::kUp)) / 1e6;
  out["tbon.max_queue_depth"] = d(overlay.maxQueueDepth());
  out["tbon.service_time_p99_ns"] =
      registry.histogram("overlay/service_time_ns").quantile(0.99);
  out["tbon.inner_s"] = s(innerNs);
  out["must.onevent_s"] = s(timedTool->busyNs());
  out["must.onevent_calls"] = d(timedTool->calls());
  out["must.root_s"] = s(rootNs);
  out["must.hook_s"] = s(hookNs);
  out["must.detections"] = d(tool.detectionsRun());
  out["must.sync_virtual_ms"] = d(syncNs) / 1e6;
  out["must.gather_virtual_ms"] = d(gatherNs) / 1e6;
  out["must.construct_s"] = secondsBetween(tTool, tToolEnd);
  out["must.session_run_s"] = wallS;
  out["wfg.build_s"] = s(buildNs);
  out["wfg.check_s"] = s(checkNs);
  if (verdict) {
    out["wfg.output_s"] = s(verdict->times.outputGenerationNs);
    out["wfg.dot_mb"] = d(verdict->dotBytes) / 1e6;
    out["wfg.arcs"] = d(verdict->check.arcCount);
  }
  out["support.metrics_json_s"] = secondsBetween(tJson0, tJson1);
  out["support.metrics_json_mb"] = d(metricsJson.size()) / 1e6;
}

// --- serve: wst serve's session mix through one ServeServer per pass ---------

/// Inputs of the serve workload that are computed once per run, outside the
/// timed passes: the formal oracle's verdict per session.
struct ServeReference {
  std::uint64_t baseSeed = 1;
  std::vector<bool> oracleDeadlock;
};

std::vector<must::SessionSpec> makeServeSpecs(std::uint64_t baseSeed) {
  std::vector<must::SessionSpec> specs;
  specs.reserve(kServeSessions);
  for (std::int32_t i = 0; i < kServeSessions; ++i) {
    const std::uint64_t seed = baseSeed + static_cast<std::uint64_t>(i);
    specs.push_back(makeServeSession(
        i, seed,
        std::make_shared<const fuzz::Scenario>(fuzz::makeScenario(seed))));
  }
  return specs;
}

std::uint64_t foldHashes(const std::vector<must::SessionResult>& results) {
  std::uint64_t fold = sim::detail::kFnvOffset;
  for (const must::SessionResult& r : results) {
    fold = sim::detail::fnvMix(fold, r.traceHash);
  }
  return fold;
}

/// One served pass: generate and submit the mix (setup_s), serve it to the
/// last verdict (wall_s), check every session against the oracle.
std::unique_ptr<must::ServeServer> servePass(
    const ServeReference& ref, RunReport& report,
    std::optional<std::uint64_t>& expectedHash, Values& out) {
  const auto t0 = Clock::now();
  std::vector<must::SessionSpec> specs = makeServeSpecs(ref.baseSeed);
  must::ServeServer::Config cfg;
  cfg.threads = kServeThreads;
  cfg.sessionCap = kServeCap;
  cfg.sliceEvents = kServeSlice;
  auto server = std::make_unique<must::ServeServer>(cfg);
  for (must::SessionSpec& spec : specs) server->submit(std::move(spec));
  const auto t1 = Clock::now();
  out["setup_s"] = secondsBetween(t0, t1);
  server->run();
  const auto t2 = Clock::now();

  const double wallS = secondsBetween(t1, t2);
  out["wall_s"] = wallS;
  out["sessions_per_s"] = kServeSessions / wallS;

  const std::vector<must::SessionResult>& results = server->results();
  report.attempted += kServeSessions;
  if (results.size() != static_cast<std::size_t>(kServeSessions)) {
    report.failed += kServeSessions;
    std::fprintf(stderr, "perfbench: serve returned %zu of %d sessions\n",
                 results.size(), kServeSessions);
    return server;
  }
  // The oracle judges the terminal state, as the fuzz differential oracle
  // does: the session's terminal verdict (its summary line) must equal it,
  // and a terminal deadlock must also have been reported by a detection
  // round. A round may report a deadlock on an intermediate state of a run
  // that then completes (3 of seeds 1-200000 do); such early reports are
  // counted on the fingerprint line, not failed.
  const std::string cleanSummary = wfg::summaryLine(wfg::CheckResult{});
  std::vector<double> virtualMs;
  virtualMs.reserve(results.size());
  std::uint64_t deadlocks = 0, earlyReports = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const must::SessionResult& r = results[i];
    const bool terminalDeadlock = r.summary != cleanSummary;
    if (!r.completed || r.evicted) {
      report.fail(r.name + ": not completed");
    } else if (terminalDeadlock != ref.oracleDeadlock[i]) {
      report.fail(r.name + ": verdict differs from the formal oracle");
    } else if (terminalDeadlock && !r.deadlock) {
      report.fail(r.name + ": deadlock not reported");
    }
    if (r.deadlock) ++deadlocks;
    if (r.deadlock && !terminalDeadlock) ++earlyReports;
    virtualMs.push_back(static_cast<double>(r.completionTime) / 1e6);
  }
  checkHash(report, expectedHash, foldHashes(results));

  if (report.fingerprint.empty()) {
    report.fixed["session_virtual_p50_ms"] = percentile(virtualMs, 0.50);
    report.fixed["session_virtual_p99_ms"] = percentile(virtualMs, 0.99);
    report.fingerprint = support::format(
        "fingerprint serve: seed=%llu sessions=%d trace_hash_fold=%016llx "
        "deadlocked=%llu early_reports=%llu session_virtual_p50_ms=%.3f "
        "session_virtual_p99_ms=%.3f",
        static_cast<unsigned long long>(ref.baseSeed), kServeSessions,
        static_cast<unsigned long long>(foldHashes(results)),
        static_cast<unsigned long long>(deadlocks),
        static_cast<unsigned long long>(earlyReports),
        report.fixed["session_virtual_p50_ms"],
        report.fixed["session_virtual_p99_ms"]);
  }
  return server;
}

/// Traced serve pass: ServeServer's per-session engines are private, so each
/// session of the mix is replayed solo from public types and every call is
/// timed. Solo replicas reproduce the served sessions byte for byte
/// (DESIGN.md §17), which is checked against `served`.
void serveReplicaPass(const ServeReference& ref, const must::ServeServer& served,
                      double servedWallS, RunReport& report, Values& out) {
  const auto d = [](auto v) { return static_cast<double>(v); };
  double generateS = 0, constructS = 0, runS = 0, jsonS = 0, terminalS = 0;
  double stackS = 0;
  std::uint64_t events = 0, calls = 0, transitions = 0, evictions = 0;
  std::uint64_t pinned = 0, messages = 0, channelMessages = 0, upBytes = 0;
  std::uint64_t detections = 0, syncNs = 0, gatherNs = 0, buildNs = 0;
  std::uint64_t checkNs = 0, outputNs = 0, dotBytes = 0, arcs = 0;
  std::uint64_t jsonBytes = 0;
  std::size_t maxWindow = 0, maxQueue = 0;
  double serviceP99 = 0;
  const auto pass0 = Clock::now();
  for (std::int32_t i = 0; i < kServeSessions; ++i) {
    const std::uint64_t seed = ref.baseSeed + static_cast<std::uint64_t>(i);
    const auto g0 = Clock::now();
    const must::SessionSpec spec = makeServeSession(
        i, seed, std::make_shared<const fuzz::Scenario>(fuzz::makeScenario(seed)));
    const auto c0 = Clock::now();
    sim::Engine engine;
    mpi::Runtime runtime(engine, spec.mpiConfig, spec.procs);
    const auto tool0 = Clock::now();
    must::DistributedTool tool(engine, runtime, spec.tool);
    const auto r0 = Clock::now();
    runtime.runToCompletion(spec.program);
    const auto j0 = Clock::now();
    const std::string metricsJson = tool.metricsJson();
    const auto w0 = Clock::now();
    // Terminal wait-for graph, DOT and summary, as ServeServer collects them.
    wfg::WaitForGraph graph(runtime.procCount());
    for (trace::ProcId p = 0; p < runtime.procCount(); ++p) {
      graph.setNode(
          tool.tracker(tool.topology().nodeOfProc(p)).waitConditions(p));
    }
    graph.pruneCollectiveCoWaiters();
    const wfg::CheckResult check = graph.check();
    std::string dot;
    wfg::makeReport(graph, check,
                    [&dot](std::string_view chunk) { dot += chunk; });
    const std::string summary = wfg::summaryLine(check);
    const auto end = Clock::now();

    generateS += secondsBetween(g0, c0);
    constructS += secondsBetween(tool0, r0);
    runS += secondsBetween(r0, j0);
    jsonS += secondsBetween(j0, w0);
    terminalS += secondsBetween(w0, end);
    stackS += secondsBetween(c0, end);

    const must::SessionResult& r = served.results()[static_cast<std::size_t>(i)];
    if (r.deadlock != tool.deadlockFound() ||
        r.completionTime != engine.now() || r.traceHash != engine.traceHash() ||
        r.metricsJson != metricsJson || r.dot != dot || r.summary != summary) {
      report.fail(r.name + ": solo replica differs from the served session");
    }

    events += engine.eventsExecuted();
    calls += runtime.totalCalls();
    transitions += tool.totalTransitions();
    maxWindow = std::max(maxWindow, tool.maxWindowSize());
    support::MetricsRegistry& registry = tool.metrics();
    evictions += registry.counter("tracker/consumed_evictions").value();
    pinned += registry.counter("tracker/consumed_pinned").value();
    serviceP99 = std::max(
        serviceP99, registry.histogram("overlay/service_time_ns").quantile(0.99));
    tbon::Overlay<must::ToolMsg>& overlay = tool.overlay();
    messages += overlay.totalMessages();
    channelMessages += overlay.totalChannelMessages();
    upBytes += overlay.bytes(tbon::LinkClass::kUp);
    maxQueue = std::max(maxQueue, overlay.maxQueueDepth());
    detections += tool.detectionsRun();
    for (const must::DistributedTool::RoundStats& round : tool.roundHistory()) {
      syncNs += round.syncNs;
      gatherNs += round.gatherNs;
      buildNs += round.buildNs;
      checkNs += round.checkNs;
    }
    if (tool.report()) outputNs += tool.report()->times.outputGenerationNs;
    dotBytes += dot.size();
    arcs += check.arcCount;
    jsonBytes += metricsJson.size();
  }
  const double passS = secondsBetween(pass0, Clock::now());

  out["wall_s"] = passS;
  out["sim.events"] = d(events);
  out["sim.serve_pool_s"] = servedWallS - stackS;
  out["mpi.calls"] = d(calls);
  out["waitstate.transitions"] = d(transitions);
  out["waitstate.max_window"] = d(maxWindow);
  out["waitstate.consumed_evictions"] = d(evictions);
  out["waitstate.consumed_pinned"] = d(pinned);
  out["tbon.messages"] = d(messages);
  out["tbon.channel_msgs_per_msg"] = ratio(d(channelMessages), d(messages));
  out["tbon.up_mb"] = d(upBytes) / 1e6;
  out["tbon.max_queue_depth"] = d(maxQueue);
  out["tbon.service_time_p99_ns"] = serviceP99;
  out["must.detections"] = d(detections);
  out["must.sync_virtual_ms"] = d(syncNs) / 1e6;
  out["must.gather_virtual_ms"] = d(gatherNs) / 1e6;
  out["must.construct_s"] = constructS;
  out["must.session_run_s"] = runS;
  out["wfg.build_s"] = d(buildNs) / 1e9;
  out["wfg.check_s"] = d(checkNs) / 1e9;
  out["wfg.output_s"] = d(outputNs) / 1e9;
  out["wfg.dot_mb"] = d(dotBytes) / 1e6;
  out["wfg.arcs"] = d(arcs);
  out["wfg.terminal_s"] = terminalS;
  out["support.metrics_json_s"] = jsonS;
  out["support.metrics_json_mb"] = d(jsonBytes) / 1e6;
  out["fuzz.generate_s"] = generateS;
}

/// Compare the first kParitySessions verdicts with `wst serve` itself, built
/// from the same tree, so the benchmark keeps measuring what the CLI serves.
bool checkWstServeParity(std::uint64_t baseSeed,
                         const must::ServeServer& served) {
  const std::filesystem::path wst =
      std::filesystem::read_symlink("/proc/self/exe").parent_path() / "wst";
  const std::string command = support::format(
      "'%s' serve --sessions %d --seed %llu", wst.c_str(), kParitySessions,
      static_cast<unsigned long long>(baseSeed));
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return false;
  std::vector<std::string> lines;
  char buffer[4096];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) {
    lines.emplace_back(buffer);
  }
  pclose(pipe);
  for (std::size_t i = 0; i < static_cast<std::size_t>(kParitySessions); ++i) {
    const must::SessionResult& r = served.results()[i];
    // wst prints "<name> <summary> rounds=<n> events=<n>"; rounds depend on
    // the session cap, everything else must match.
    const std::string head = support::format("%-24s %s rounds=", r.name.c_str(),
                                             r.summary.c_str());
    const std::string tail = support::format(
        " events=%llu\n", static_cast<unsigned long long>(r.eventsExecuted));
    if (i >= lines.size() || !lines[i].starts_with(head) ||
        !lines[i].ends_with(tail)) {
      std::fprintf(stderr, "perfbench: wst serve parity mismatch at %s\n",
                   r.name.c_str());
      return false;
    }
  }
  return true;
}

// --- Measurement loops -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

void logPass(const char* kind, const Values& pass) {
  const auto get = [&pass](const char* name) {
    const auto it = pass.find(name);
    return it == pass.end() ? 0.0 : it->second;
  };
  std::fprintf(stderr, "perfbench: %-7s pass setup_s=%.6f wall_s=%.6f\n", kind,
               get("setup_s"), get("wall_s"));
}

/// Run `pass(mode, values)` once for warm-up, then for `seconds`: plain
/// passes, each followed by `setupRepeats` set-up-only passes, or (traced
/// run) plain and traced passes alternately, each pair followed by a
/// two-shard pass when `twoShardPasses` is set.
template <typename Pass>
void measure(const Options& opt, int setupRepeats, bool twoShardPasses,
             RunReport& report, Pass&& pass) {
  for (int i = 0; i < kWarmupPasses; ++i) {
    Values warmup;
    pass(Mode::kPlain, warmup);
    logPass("warm-up", warmup);
  }
  const auto start = Clock::now();
  while (secondsBetween(start, Clock::now()) < opt.seconds ||
         report.passes.size() < kMinPasses) {
    Values plain;
    pass(Mode::kPlain, plain);
    logPass("plain", plain);
    if (!opt.trace) {
      report.setups.push_back(plain["setup_s"]);
      for (int i = 0; i < setupRepeats; ++i) {
        Values setup;
        pass(Mode::kSetupOnly, setup);
        report.setups.push_back(setup["setup_s"]);
      }
      report.passes.push_back(std::move(plain));
      continue;
    }
    report.untracedWall.push_back(plain["wall_s"]);
    Values traced;
    pass(Mode::kTraced, traced);
    logPass("traced", traced);
    report.passes.push_back(std::move(traced));
    if (twoShardPasses) {
      Values twoShard;
      pass(Mode::kTwoShards, twoShard);
      logPass("2-shard", twoShard);
      report.twoShard.push_back(std::move(twoShard));
    }
  }
}

RunReport runPaper(const PaperWorkload& w, const Options& opt) {
  RunReport report;
  const must::HarnessResult untooled =
      must::runReference(kProcs, bench::sierraLike(), w.program());
  std::optional<std::uint64_t> hash;
  measure(opt, kPaperSetupRepeats, w.twoShardPasses, report,
          [&](Mode mode, Values& out) {
            paperPass(w, untooled, mode, report, hash, out);
            // mpi.untooled_wall_s: one warm reference run per traced pass.
            if (mode != Mode::kTraced) return;
            const auto t0 = Clock::now();
            must::runReference(kProcs, bench::sierraLike(), w.program());
            out["mpi.untooled_wall_s"] = secondsBetween(t0, Clock::now());
          });
  return report;
}

RunReport runServe(const Options& opt) {
  RunReport report;
  ServeReference ref;
  ref.baseSeed = opt.seed;
  for (std::int32_t i = 0; i < kServeSessions; ++i) {
    const fuzz::Scenario scenario =
        fuzz::makeScenario(opt.seed + static_cast<std::uint64_t>(i));
    ref.oracleDeadlock.push_back(fuzz::runFormalOracle(scenario).deadlock);
  }
  std::optional<std::uint64_t> hash;
  std::unique_ptr<must::ServeServer> last;
  double lastWallS = 0;
  bool parityChecked = false;
  measure(opt, 0, false, report, [&](Mode mode, Values& out) {
    if (mode == Mode::kTraced) {
      serveReplicaPass(ref, *last, lastWallS, report, out);
      return;
    }
    last.reset();  // free the previous mix before serving the next one
    last = servePass(ref, report, hash, out);
    lastWallS = out["wall_s"];
    if (!parityChecked) {
      parityChecked = true;
      if (!checkWstServeParity(ref.baseSeed, *last)) report.consistent = false;
    }
    // Only the traced pass that follows needs the served results.
    if (!opt.trace) last.reset();
  });
  return report;
}

// --- Output ------------------------------------------------------------------------

std::string number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, end) : std::string("0");
}

/// Medians over the passes, with the per-run values layered on top. The
/// end-to-end times of an untraced run come from the fastest pass instead:
/// co-tenants on a shared host slow passes, by up to 2x for tens of seconds,
/// and never speed one up, so the minimum moved least between runs (README.md,
/// Steadiness).
Values summarize(const RunReport& report, bool trace) {
  Values summary = report.fixed;
  std::map<std::string, std::vector<double>> series;
  for (const Values& pass : report.passes) {
    for (const auto& [name, value] : pass) series[name].push_back(value);
  }
  for (const auto& [name, values] : series) summary[name] = median(values);
  if (!trace) {
    summary["wall_s"] = std::ranges::min(series["wall_s"]);
    summary["sessions_per_s"] = std::ranges::max(series["sessions_per_s"]);
    summary["setup_s"] = std::ranges::min(report.setups);
  }
  summary["peak_rss_mb"] = peakRssMb();
  if (trace) {
    const double plainWallS = median(report.untracedWall);
    summary["trace_overhead"] = ratio(summary["wall_s"], plainWallS);
    summary["sim.ns_per_event"] = ratio(plainWallS * 1e9, summary["sim.events"]);
  }
  if (!report.twoShard.empty()) {
    std::vector<double> walls, shares;
    for (const Values& pass : report.twoShard) {
      walls.push_back(pass.at("wall_s"));
      shares.push_back(pass.at("sim.max_shard_event_share"));
    }
    summary["sim.two_shard_wall_s"] = median(walls);
    summary["sim.two_shard_speedup"] =
        ratio(median(report.untracedWall), median(walls));
    summary["sim.max_shard_event_share"] = median(shares);
  }
  summary["failed_frac"] = ratio(static_cast<double>(report.failed),
                                 static_cast<double>(report.attempted));
  return summary;
}

template <std::size_t N>
std::string metricsJson(const Values& summary, const MetricDef (&defs)[N]) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = summary.find(defs[i].name);
    out += support::format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                           i == 0 ? "" : ", ", defs[i].name,
                           number(it == summary.end() ? 0.0 : it->second).c_str(),
                           defs[i].unit);
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench_driver --workload "
               "stress|wildcard|serve --seed N --seconds S --trace 0|1\n",
               why);
  return 64;
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("every option takes a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0) || !std::isfinite(opt.seconds)) {
        return usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else {
      return usage("unknown option");
    }
  }

  RunReport report;
  if (opt.workload == "stress") {
    report = runPaper(kStress, opt);
  } else if (opt.workload == "wildcard") {
    report = runPaper(kWildcard, opt);
  } else if (opt.workload == "serve") {
    report = runServe(opt);
  } else {
    return usage("--workload must be stress, wildcard or serve");
  }

  const Values summary = summarize(report, opt.trace);
  std::printf("%s\n", report.fingerprint.c_str());
  const bool correct = report.failed == 0 && report.consistent;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              opt.trace ? metricsJson(summary, kPerLayer).c_str()
                        : metricsJson(summary, kEndToEnd).c_str());
  return 0;
}

}  // namespace
}  // namespace wst::perfbench

int main(int argc, char** argv) {
  try {
    return wst::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
