// Live telemetry plane (DESIGN.md §16): per-round metric timeline, health
// beats + staleness detection, overhead self-accounting, and the streaming
// status endpoint. The acceptance witnesses:
//   - status JSON, Prometheus text, and timeline JSON are byte-identical
//     across parallel-engine worker counts;
//   - a silent (muted) node is flagged stale at the root within two beat
//     intervals and recovers when it reports again;
//   - the overhead buckets reconcile with the end-of-run metrics registry;
//   - disabled telemetry registers no extra instruments.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "must/harness.hpp"
#include "must/telemetry.hpp"
#include "support/metrics_timeline.hpp"
#include "support/strings.hpp"
#include "support/tracing.hpp"
#include "workloads/stress.hpp"

namespace wst::must {
namespace {

mpi::Runtime::Program stressProgram() {
  workloads::StressParams params;
  params.iterations = 30;
  return workloads::cyclicExchange(params);
}

struct TelemetryRun {
  std::string status;
  std::string prom;
  std::string timelineJson;
  std::uint64_t rewrites = 0;
  std::uint32_t staleNodes = 0;
  bool node0Stale = false;
  std::uint64_t staleFlags = 0;
  std::uint64_t wrapperNsSum = 0;   // per-proc bucket totals
  std::uint64_t creditNsSum = 0;
  std::uint64_t wrapperCounter = 0;  // registry mirrors of the same totals
  std::uint64_t creditCounter = 0;
  std::int64_t timelineWrapper = -1;  // counter/overhead/wrapper_ns in the
                                      // final reconstructed timeline point
  sim::Time endTime = 0;
  std::string metricsJson;
};

TelemetryRun runTelemetry(std::int32_t threads, tbon::NodeId muteNode = -1,
                          sim::Duration beatInterval = 500'000) {
  constexpr std::int32_t kProcs = 32;
  mpi::RuntimeConfig mpiCfg;
  ToolConfig cfg;
  cfg.telemetry = true;
  cfg.periodicDetection = 2'000'000;
  cfg.healthBeatInterval = beatInterval;
  cfg.muteHealthBeatNode = muteNode;

  sim::ParallelEngine engine(threads);
  mpi::Runtime runtime(engine, mpiCfg, kProcs);
  DistributedTool tool(engine, runtime, cfg);
  StatusWriter::Config swCfg;
  swCfg.interval = 1'000'000;  // in-memory only: path stays empty
  StatusWriter writer(engine, tool, swCfg);
  writer.start();
  runtime.runToCompletion(stressProgram());
  tool.finalizeTelemetry();
  writer.writeFinal();

  TelemetryRun out;
  out.status = writer.lastStatusJson();
  out.prom = writer.lastProm();
  out.timelineJson = tool.timeline()->toJson();
  out.rewrites = writer.rewrites();
  out.staleNodes = tool.staleNodeCount();
  out.node0Stale = !tool.healthTable().empty() && tool.healthTable()[0].stale;
  out.staleFlags = tool.metrics().counter("health/stale_flags").value();
  for (const DistributedTool::ProcOverhead& po : tool.procOverhead()) {
    out.wrapperNsSum += po.wrapperNs;
    out.creditNsSum += po.creditWaitNs;
  }
  out.wrapperCounter = tool.metrics().counter("overhead/wrapper_ns").value();
  out.creditCounter = tool.metrics().counter("overhead/credit_wait_ns").value();
  for (const auto& [key, value] : tool.timeline()->latest().series) {
    if (key == "counter/overhead/wrapper_ns") out.timelineWrapper = value;
  }
  out.endTime = engine.now();
  out.metricsJson = tool.metricsJson();
  return out;
}

TEST(Telemetry, StatusAndTimelineByteIdenticalAcrossThreadCounts) {
  const TelemetryRun base = runTelemetry(1);
  ASSERT_FALSE(base.status.empty());
  ASSERT_FALSE(base.prom.empty());
  EXPECT_NE(base.status.find("\"schema\": \"wst-status-v1\""),
            std::string::npos);
  EXPECT_NE(base.timelineJson.find("\"schema\": \"wst-timeline-v1\""),
            std::string::npos);
  EXPECT_NE(base.prom.find("wst_virtual_time_ns"), std::string::npos);
  EXPECT_GE(base.rewrites, 2u);  // at least one cadence render + the final
  for (const std::int32_t threads : {2, 4}) {
    const TelemetryRun other = runTelemetry(threads);
    EXPECT_EQ(base.status, other.status) << "threads=" << threads;
    EXPECT_EQ(base.prom, other.prom) << "threads=" << threads;
    EXPECT_EQ(base.timelineJson, other.timelineJson)
        << "threads=" << threads;
    EXPECT_EQ(base.rewrites, other.rewrites) << "threads=" << threads;
  }
}

TEST(Telemetry, SilentNodeFlaggedStaleWithinTwoBeatIntervals) {
  // Node 0 never beats. With the default staleness factor (2 intervals) the
  // root must flag it, and only it, by its second sweep.
  const sim::Duration interval = 500'000;
  const TelemetryRun muted = runTelemetry(1, /*muteNode=*/0, interval);
  EXPECT_EQ(muted.staleNodes, 1u);
  EXPECT_TRUE(muted.node0Stale);
  EXPECT_GE(muted.staleFlags, 1u);
  // The run is long enough that a flag later than 2 intervals would also
  // show up here; pin the transition count so the flag happened exactly
  // once (no flap) and the status document carries it.
  EXPECT_EQ(muted.staleFlags, 1u);
  EXPECT_NE(muted.status.find("\"stale_nodes\": 1"), std::string::npos);

  // All nodes reporting: nothing is stale, no flag transitions ever fire.
  const TelemetryRun healthy = runTelemetry(1, /*muteNode=*/-1, interval);
  EXPECT_EQ(healthy.staleNodes, 0u);
  EXPECT_EQ(healthy.staleFlags, 0u);
}

TEST(Telemetry, OverheadBucketsReconcileWithMetricsRegistry) {
  const TelemetryRun run = runTelemetry(1);
  // The per-proc buckets and their registry mirrors are updated together;
  // at end of run they must agree exactly.
  EXPECT_GT(run.wrapperNsSum, 0u);
  EXPECT_EQ(run.wrapperNsSum, run.wrapperCounter);
  EXPECT_EQ(run.creditNsSum, run.creditCounter);
  // No bucket can exceed the virtual run time per process.
  EXPECT_LE(run.wrapperNsSum,
            static_cast<std::uint64_t>(run.endTime) * 32);
  // The final timeline point reconstructs the same total as the registry
  // (ISSUE acceptance: "overhead numbers reconcile with the end-of-run
  // metrics JSON"), and the status document carries it verbatim.
  EXPECT_EQ(run.timelineWrapper,
            static_cast<std::int64_t>(run.wrapperCounter));
  EXPECT_NE(run.status.find(support::format(
                "\"wrapper_ns\": %llu",
                static_cast<unsigned long long>(run.wrapperCounter))),
            std::string::npos);
}

TEST(Telemetry, DisabledTelemetryRegistersNoInstruments) {
  constexpr std::int32_t kProcs = 32;
  mpi::RuntimeConfig mpiCfg;
  ToolConfig cfg;  // telemetry off, beats off
  const HarnessResult result =
      runWithTool(kProcs, mpiCfg, cfg, stressProgram());
  EXPECT_EQ(result.metricsJson.find("overhead/"), std::string::npos);
  EXPECT_EQ(result.metricsJson.find("health/"), std::string::npos);
}

TEST(Telemetry, BeatsDoNotChangeVerdictOrSchedule) {
  // Health beats ride the overlay as control messages; they must not
  // perturb the application schedule or the verdict.
  constexpr std::int32_t kProcs = 32;
  mpi::RuntimeConfig mpiCfg;
  ToolConfig plain;
  plain.periodicDetection = 2'000'000;
  const HarnessResult base =
      runWithTool(kProcs, mpiCfg, plain, stressProgram());
  ToolConfig beats = plain;
  beats.telemetry = true;
  beats.healthBeatInterval = 500'000;
  const HarnessResult beaty =
      runWithTool(kProcs, mpiCfg, beats, stressProgram());
  EXPECT_EQ(base.deadlockReported, beaty.deadlockReported);
  EXPECT_EQ(base.allFinalized, beaty.allFinalized);
  EXPECT_EQ(base.lastFinalize, beaty.lastFinalize);
  EXPECT_EQ(base.appCalls, beaty.appCalls);
}

/// One JSON object with balanced, properly nested brackets outside strings
/// (a structural check; the values themselves are not validated).
bool isOneJsonObject(const std::string& text) {
  std::string closers;
  bool inString = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (inString) {
      if (c == '\\') ++i;
      if (c == '"') inString = false;
    } else if (c == '"') {
      inString = true;
    } else if (c == '{' || c == '[') {
      closers.push_back(c == '{' ? '}' : ']');
    } else if (c == '}' || c == ']') {
      if (closers.empty() || closers.back() != c) return false;
      closers.pop_back();
      if (closers.empty()) return i + 1 == text.size();
    }
  }
  return false;
}

TEST(Telemetry, DeadlockReportAndStatusFileCarryTheTelemetryPlane) {
  // A traced wildcard deadlock with fast health beats and a status file, as
  // `wst run --beat-interval-ms 0.05 --status-out PATH --html PATH
  // --trace-out PATH --trace-depth 16` runs it: the report gains the
  // telemetry section, and the status file holds the final document.
  constexpr std::int32_t kProcs = 32;
  sim::ParallelEngine engine;
  support::Tracer::Config traceCfg;
  traceCfg.capacityPerTrack = 16;
  traceCfg.clock = [&engine] {
    return static_cast<std::uint64_t>(engine.now());
  };
  support::Tracer tracer(traceCfg);
  engine.setTraceTrack(tracer.track(support::TrackKind::kEngine, 0, "engine"));
  ToolConfig cfg;
  cfg.telemetry = true;
  cfg.healthBeatInterval = 50'000;
  cfg.tracer = &tracer;
  mpi::Runtime runtime(engine, mpi::RuntimeConfig{}, kProcs);
  runtime.setTracer(&tracer);
  DistributedTool tool(engine, runtime, cfg);
  const std::string path =
      ::testing::TempDir() + "wst-telemetry-report-status.json";
  std::filesystem::remove(path);
  StatusWriter::Config swCfg;
  swCfg.path = path;
  StatusWriter writer(engine, tool, swCfg);
  writer.start();
  runtime.runToCompletion(workloads::wildcardDeadlock());
  tool.attachTelemetryToReport();
  tool.finalizeTelemetry();
  writer.writeFinal();

  ASSERT_TRUE(tool.deadlockFound());
  const std::string& html = tool.report()->html;
  EXPECT_NE(html.find("Telemetry"), std::string::npos);
  EXPECT_NE(html.find(support::format(
                "<tr><td>Dropped trace events</td><td>%s</td></tr>",
                support::withCommas(tracer.totalDropped()).c_str())),
            std::string::npos);
  EXPECT_NE(html.find("Fleet health (beat interval 50,000 ns)"),
            std::string::npos);

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path;
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), writer.lastStatusJson());
  EXPECT_TRUE(isOneJsonObject(text.str())) << text.str();
  EXPECT_EQ(text.str().rfind("{\"schema\": \"wst-status-v1\"", 0), 0u);
  EXPECT_TRUE(std::filesystem::exists(path + ".prom"));
  EXPECT_TRUE(writer.written());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prom");
}

}  // namespace
}  // namespace wst::must
