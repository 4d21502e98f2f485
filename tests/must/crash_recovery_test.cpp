// Crash-recovery soak (DESIGN.md §17): crash-stop each inner node of a
// depth-3 TBON at crash times spread across the protocol phases of a
// detection round — consistent-state ping, wait-info gather, condensation
// merge, batch flush — under each tracking mode {incremental, hierarchical,
// hybrid, batched}, and require the recovered run to agree with the formal
// oracle (and therefore with the crash-free run) on verdict, terminal state
// vector, blocked/finished sets and the canonical wait-for graph.
//
// A second group drives recovery through the health plane: with beats on,
// a crashed node must produce exactly one health/stale_nodes flag
// transition and exactly one re-parenting run, and a paused (flapping)
// node must be unflagged without ever starting a recovery.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/scenario.hpp"
#include "mpi/runtime.hpp"
#include "must/tool.hpp"
#include "sim/parallel_engine.hpp"
#include "tbon/topology.hpp"
#include "workloads/stress.hpp"

namespace wst::must {
namespace {

using fuzz::GenOptions;
using fuzz::Outcome;
using fuzz::RunOptions;
using fuzz::Scenario;

Scenario crashScenario(std::uint64_t seed) {
  GenOptions gen;
  gen.allowCrash = true;  // procs 5..8 at fan-in 2: depth-3, 2 inner nodes
  Scenario sc = fuzz::makeScenario(seed, gen);
  // Rounds at a known cadence so the crash times below land inside live
  // protocol phases instead of after quiescence.
  sc.periodic = 100'000;
  return sc;
}

struct Variant {
  const char* name;
  RunOptions options;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  RunOptions base;
  base.faults = false;
  out.push_back({"incremental", base});
  RunOptions hier = base;
  hier.hierarchical = true;
  out.push_back({"hierarchical", hier});
  RunOptions hybrid = base;
  hybrid.hybrid = true;
  out.push_back({"hybrid", hybrid});
  RunOptions batch = base;
  batch.batch = true;
  out.push_back({"batched", batch});
  return out;
}

TEST(CrashRecovery, EveryInnerNodeEveryPhaseEveryVariant) {
  // Crash times relative to the detection round at 200'000 (periodic
  // cadence 100'000, round latencies ~2'000/hop): +2k lands in the
  // consistent-state ping exchange, +6k in the RequestWaits broadcast /
  // gather, +10k in the wait-info and condensation merge window at the
  // inner layer, +16k in the batch flush window. The two times in round 4
  // re-run the same phases with warm incremental state, and 450'000 is
  // deep into execution for the late-crash case.
  const std::vector<sim::Time> crashTimes = {202'000, 206'000, 210'000,
                                             216'000, 402'000, 410'000,
                                             450'000};
  for (const std::uint64_t seed : {3ULL, 11ULL}) {
    const Scenario clean = crashScenario(seed);
    ASSERT_TRUE(clean.crash.enabled);
    const Outcome formal = fuzz::runFormalOracle(clean);
    for (const Variant& v : variants()) {
      // Crash-free distributed run: the parity baseline.
      Scenario noCrash = clean;
      noCrash.crash.enabled = false;
      EXPECT_EQ(fuzz::compareOutcomes(
                    formal, fuzz::runDistributedOracle(noCrash, v.options)),
                "")
          << v.name << " seed=" << seed << " (crash-free)";
      for (std::int32_t inner = 0; inner < 2; ++inner) {
        for (const sim::Time at : crashTimes) {
          Scenario sc = clean;
          sc.crash.nodeIndex = inner;
          sc.crash.at = at;
          const Outcome dist = fuzz::runDistributedOracle(sc, v.options);
          EXPECT_EQ(fuzz::compareOutcomes(formal, dist), "")
              << v.name << " seed=" << seed << " inner=" << inner
              << " at=" << at;
        }
      }
    }
  }
}

TEST(CrashRecovery, RecoveredRunIsThreadCountInvariant) {
  Scenario sc = crashScenario(3);
  sc.crash.at = 206'000;
  RunOptions base1;
  base1.faults = false;
  base1.threads = 1;
  const Outcome base = fuzz::runDistributedOracle(sc, base1);
  for (const std::int32_t threads : {2, 4}) {
    RunOptions opt = base1;
    opt.threads = threads;
    const Outcome out = fuzz::runDistributedOracle(sc, opt);
    EXPECT_EQ(fuzz::compareOutcomes(base, out), "") << "threads=" << threads;
    EXPECT_EQ(out.traceHash, base.traceHash) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Health-plane recovery: beats + staleness sweep drive the re-parenting.

struct BeatRun {
  bool deadlock = false;
  std::uint32_t recoveries = 0;
  std::uint64_t staleFlags = 0;
  std::uint64_t flapSuppressed = 0;
  std::uint64_t reparentRuns = 0;
  std::uint32_t staleNodes = 0;
  sim::Time endTime = 0;
  std::vector<trace::LocalTs> state;
  std::vector<bool> finished;
};

BeatRun runStressWithHealth(const ToolConfig& cfg, std::int32_t procs = 32) {
  sim::ParallelEngine engine;
  mpi::RuntimeConfig mpiCfg;
  mpi::Runtime runtime(engine, mpiCfg, procs);
  DistributedTool tool(engine, runtime, cfg);
  // ~15k virtual ns per iteration: 300 iterations keep the application
  // active past 4.4M ns, so beats, sweeps and the recovery all run while
  // real tool traffic is in flight.
  workloads::StressParams params;
  params.iterations = 300;
  runtime.runToCompletion(workloads::cyclicExchange(params));

  BeatRun out;
  out.deadlock = tool.deadlockFound();
  out.recoveries = tool.recoveriesCompleted();
  out.staleFlags = tool.metrics().counter("health/stale_flags").value();
  out.flapSuppressed =
      tool.metrics().counter("health/flap_suppressed").value();
  out.reparentRuns = tool.metrics().counter("health/reparent_runs").value();
  out.staleNodes = tool.staleNodeCount();
  out.endTime = engine.now();
  for (trace::ProcId p = 0; p < procs; ++p) {
    const auto& tracker = tool.tracker(tool.topology().nodeOfProc(p));
    out.state.push_back(tracker.current(p));
    out.finished.push_back(tracker.finishedProc(p));
  }
  return out;
}

ToolConfig healthConfig() {
  ToolConfig cfg;
  cfg.healthBeatInterval = 500'000;
  cfg.periodicDetection = 2'000'000;
  return cfg;
}

TEST(CrashRecovery, BeatDrivenCrashFlagsOnceAndRecoversOnce) {
  // Topology(32, 4): leaf hosts 0..7, inner 8..9, root 10. Crash each
  // inner node in its own run; the verdict and terminal state must match
  // the crash-free run, with exactly one stale-flag transition and one
  // re-parenting run per crash.
  const BeatRun clean = runStressWithHealth(healthConfig());
  ASSERT_FALSE(clean.deadlock);
  EXPECT_EQ(clean.recoveries, 0u);
  EXPECT_EQ(clean.staleFlags, 0u);
  ASSERT_GT(clean.endTime, 4'000'000) << "run too short to exercise beats";

  for (const tbon::NodeId victim : {8, 9}) {
    ToolConfig cfg = healthConfig();
    cfg.crashPlan.push_back({victim, 2'000'000});
    const BeatRun crashed = runStressWithHealth(cfg);
    EXPECT_FALSE(crashed.deadlock) << "victim=" << victim;
    EXPECT_EQ(crashed.recoveries, 1u) << "victim=" << victim;
    EXPECT_EQ(crashed.reparentRuns, 1u) << "victim=" << victim;
    // Exactly one flag transition: the victim's. Recovery freezes the
    // flag, so it neither clears nor re-fires, and no other node goes
    // stale.
    EXPECT_EQ(crashed.staleFlags, 1u) << "victim=" << victim;
    EXPECT_EQ(crashed.staleNodes, 1u) << "victim=" << victim;
    EXPECT_EQ(crashed.flapSuppressed, 0u) << "victim=" << victim;
    EXPECT_EQ(crashed.state, clean.state) << "victim=" << victim;
    EXPECT_EQ(crashed.finished, clean.finished) << "victim=" << victim;
  }
}

TEST(CrashRecovery, FlappingNodeIsUnflaggedWithoutReparenting) {
  // Inner node 8 pauses its beats for 2.5 intervals — long enough to be
  // flagged stale at one sweep — then resumes before the confirm sweep.
  // The sweep must unflag it via the flap path: no recovery, no second
  // flag transition, and a clean stale table at the end.
  ToolConfig cfg = healthConfig();
  cfg.pauseHealthBeatNode = 8;
  cfg.pauseBeatFrom = 1'050'000;
  cfg.pauseBeatTo = 2'300'000;
  const BeatRun flapped = runStressWithHealth(cfg);
  EXPECT_FALSE(flapped.deadlock);
  EXPECT_GE(flapped.staleFlags, 1u);
  EXPECT_EQ(flapped.flapSuppressed, flapped.staleFlags)
      << "every flag must resolve as a flap, never as a recovery";
  EXPECT_EQ(flapped.recoveries, 0u);
  EXPECT_EQ(flapped.reparentRuns, 0u);
  EXPECT_EQ(flapped.staleNodes, 0u);

  const BeatRun clean = runStressWithHealth(healthConfig());
  EXPECT_EQ(flapped.state, clean.state);
  EXPECT_EQ(flapped.finished, clean.finished);
}

}  // namespace
}  // namespace wst::must
