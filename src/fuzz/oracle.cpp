#include "fuzz/oracle.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "analysis/classifier.hpp"
#include "fuzz/analyze.hpp"
#include "fuzz/interpreter.hpp"
#include "mpi/runtime.hpp"
#include "must/recorder.hpp"
#include "must/tool.hpp"
#include "sim/parallel_engine.hpp"
#include "support/strings.hpp"
#include "waitstate/transition_system.hpp"
#include "wfg/graph.hpp"

namespace wst::fuzz {
namespace {

/// Structural serialization of a wait-for graph. Excludes every free-text
/// field (clause reasons, operation descriptions) — the tracker and the
/// transition system phrase those differently — and normalizes clause and
/// target order, so equal strings mean structurally identical graphs.
std::string canonicalWfg(const wfg::WaitForGraph& graph) {
  // Wave indices are internal labels and incomparable across the two sides
  // (the formal system numbers waves globally across communicators, the
  // tracker per communicator). What must agree is the *partition* they
  // induce — which procs share a wave — so the canonical form replaces the
  // index with the wave's sorted membership set.
  std::map<std::pair<mpi::CommId, std::uint32_t>, std::vector<trace::ProcId>>
      waves;
  for (trace::ProcId p = 0; p < graph.procCount(); ++p) {
    const wfg::NodeConditions& n = graph.node(p);
    if (n.blocked && n.inCollective) {
      waves[{n.collComm, n.collWaveIndex}].push_back(p);
    }
  }
  const auto waveLabel = [&](mpi::CommId comm, std::uint32_t wave) {
    const auto it = waves.find({comm, wave});
    if (it == waves.end()) return std::string("-");
    std::string s;
    for (const auto p : it->second) s += support::format("%d,", p);
    return s;
  };

  std::string out;
  for (trace::ProcId p = 0; p < graph.procCount(); ++p) {
    const wfg::NodeConditions& n = graph.node(p);
    out += support::format("p%d blocked=%d", p, n.blocked ? 1 : 0);
    if (n.blocked) {
      std::vector<std::string> clauses;
      for (const wfg::Clause& c : n.clauses) {
        std::vector<trace::ProcId> targets = c.targets;
        std::sort(targets.begin(), targets.end());
        std::string s = support::format(
            " {t=%d comm=%d wave=%s:", static_cast<int>(c.type), c.comm,
            waveLabel(c.comm, c.waveIndex).c_str());
        for (const auto t : targets) s += support::format(" %d", t);
        s += "}";
        clauses.push_back(std::move(s));
      }
      std::sort(clauses.begin(), clauses.end());
      for (const auto& c : clauses) out += c;
    }
    out += "\n";
  }
  return out;
}

void fillFromGraph(Outcome& out, const wfg::WaitForGraph& graph) {
  const wfg::CheckResult check = graph.check();
  out.deadlock = check.deadlock;
  out.deadlocked = check.deadlocked;
  std::sort(out.deadlocked.begin(), out.deadlocked.end());
  out.wfg = canonicalWfg(graph);
}

mpi::RuntimeConfig mpiConfigFor(const Scenario& sc) {
  mpi::RuntimeConfig cfg;
  // Two ranks per node so even the smallest scenarios span several tool
  // nodes (otherwise the intralayer protocol would never fire).
  cfg.ranksPerNode = 2;
  (void)sc;
  return cfg;
}

/// The scenario's tool configuration, before the RunOptions knobs and fault
/// plans runDistributedOracle adds.
must::ToolConfig toolConfigFor(const Scenario& scenario) {
  must::ToolConfig cfg;
  cfg.fanIn = scenario.fanIn;
  // Zero application-visible overhead: both oracle sides must observe the
  // same execution (identical wildcard matching decisions).
  cfg.appEventCost = 0;
  cfg.overlay.appToLeaf.credits = 0;
  cfg.detectOnQuiescence = true;
  cfg.periodicDetection = scenario.periodic;
  cfg.detectionJitter = scenario.detectionJitter;
  cfg.detectionJitterSeed = scenario.seed + 1;
  // Scenarios may block forever without a WFG deadlock (starved wildcard
  // receives); bound the periodic rounds so the simulation terminates. The
  // quiescence-triggered final detection runs regardless.
  cfg.maxPeriodicRounds = 64;
  cfg.consumedHistory = scenario.consumedHistory;
  cfg.overlay.intralayer.latency = scenario.latIntra;
  cfg.overlay.treeUp.latency = scenario.latUp;
  cfg.overlay.treeDown.latency = scenario.latDown;
  return cfg;
}

}  // namespace

must::SessionSpec sessionSpec(std::string name,
                              std::shared_ptr<const Scenario> scenario) {
  must::SessionSpec spec;
  spec.name = std::move(name);
  spec.procs = scenario->procs;
  spec.mpiConfig = mpiConfigFor(*scenario);
  spec.tool = toolConfigFor(*scenario);
  spec.program = scenarioProgram(std::move(scenario));
  return spec;
}

std::string Outcome::summary() const {
  std::string s = support::format("deadlock=%d blocked=[", deadlock ? 1 : 0);
  for (std::size_t p = 0; p < blocked.size(); ++p) {
    if (blocked[p]) s += support::format(" %zu", p);
  }
  s += " ] finished=[";
  for (std::size_t p = 0; p < finished.size(); ++p) {
    if (finished[p]) s += support::format(" %zu", p);
  }
  s += " ] state=[";
  for (const auto ts : state) s += support::format(" %lld",
                                                   static_cast<long long>(ts));
  s += support::format(" ] traceHash=%016llx",
                       static_cast<unsigned long long>(traceHash));
  return s;
}

Outcome runFormalOracle(const Scenario& scenario) {
  const auto sc = std::make_shared<const Scenario>(scenario);
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpiConfigFor(scenario), scenario.procs);
  must::Recorder recorder(runtime);
  runtime.runToCompletion(scenarioProgram(sc));
  const trace::MatchedTrace trace = recorder.finish();
  waitstate::TransitionSystem ts(trace);
  ts.runToTerminal();

  Outcome out;
  out.state = ts.state();
  out.blocked.resize(static_cast<std::size_t>(scenario.procs), false);
  out.finished.resize(static_cast<std::size_t>(scenario.procs), false);
  for (const auto p : ts.blockedProcs())
    out.blocked[static_cast<std::size_t>(p)] = true;
  for (trace::ProcId p = 0; p < scenario.procs; ++p)
    out.finished[static_cast<std::size_t>(p)] = ts.finished(p);
  fillFromGraph(out, ts.buildWaitForGraph());
  out.traceHash = engine.traceHash();
  return out;
}

Outcome runDistributedOracle(const Scenario& scenario,
                             const RunOptions& options) {
  const auto sc = std::make_shared<const Scenario>(scenario);
  sim::ParallelEngine engine(options.threads);
  mpi::Runtime runtime(engine, mpiConfigFor(scenario), scenario.procs);

  // Built before the tool and kept alive past it: the tool reads the
  // certificate both at construction and while handling sampled events.
  analysis::Certificate certificate;

  must::ToolConfig cfg = toolConfigFor(scenario);
  cfg.batchWaitState = options.batch;
  cfg.injectBug = options.injectBug;
  // The in-tool referee: every round is also checked against its reference
  // (Outcome::divergences) — the full rebuild + cold check, and under the
  // hierarchical check the raw gather and root check too.
  cfg.verify = true;
  cfg.hierarchicalCheck = options.hierarchical;
  if (options.hybrid) {
    certificate = analysis::analyzeProgram(programFromScenario(scenario));
    cfg.certificate = &certificate;
    // Sampling must stay invisible to the application schedule, like every
    // other oracle overhead knob.
    cfg.sampledEventCost = 0;
  }
  if (scenario.crash.enabled) {
    // Map the abstract victim index onto an eligible inner node of the
    // actual topology (never the root, never a first-layer leaf host), so
    // shrinking can mutate the index freely without invalidating the plan.
    const tbon::Topology topo(scenario.procs, scenario.fanIn);
    const std::int32_t innerCount =
        topo.nodeCount() - topo.firstLayerCount() - 1;
    if (innerCount > 0) {
      const auto victim = static_cast<tbon::NodeId>(
          topo.firstLayerCount() + scenario.crash.nodeIndex % innerCount);
      cfg.crashPlan.push_back(
          {victim, std::max<sim::Time>(scenario.crash.at, 10'000)});
    }
  }
  if (options.faults) {
    const FaultPlan& f = scenario.faults;
    if (f.drop > 0.0 || f.dup > 0.0 || f.delay > 0.0) {
      cfg.overlay.faults.enabled = true;
      cfg.overlay.faults.seed = f.seed;
      cfg.overlay.faults.dropProb = f.drop;
      cfg.overlay.faults.dupProb = f.dup;
      cfg.overlay.faults.delayProb = f.delay;
      cfg.overlay.faults.maxExtraDelay = f.maxExtraDelay;
    }
    if (f.jitter > 0) {
      cfg.overlay.intralayer.jitter = f.jitter;
      cfg.overlay.intralayer.jitterSeed = f.seed ^ 0x9E3779B97F4A7C15ULL;
      cfg.overlay.treeUp.jitter = f.jitter;
      cfg.overlay.treeUp.jitterSeed = f.seed ^ 0xBF58476D1CE4E5B9ULL;
      cfg.overlay.treeDown.jitter = f.jitter;
      cfg.overlay.treeDown.jitterSeed = f.seed ^ 0x94D049BB133111EBULL;
    }
  }

  must::DistributedTool tool(engine, runtime, cfg);
  runtime.runToCompletion(scenarioProgram(sc));
  return observe(tool, engine);
}

Outcome observe(const must::DistributedTool& tool,
                const sim::Scheduler& engine) {
  const wfg::WaitForGraph graph = tool.terminalGraph();
  Outcome out;
  for (trace::ProcId p = 0; p < graph.procCount(); ++p) {
    const auto& tracker = tool.tracker(tool.topology().nodeOfProc(p));
    out.state.push_back(tracker.current(p));
    // Pruning drops clauses only, so the blocked flag is the tracker's.
    out.blocked.push_back(graph.node(p).blocked);
    out.finished.push_back(tracker.finishedProc(p));
  }
  fillFromGraph(out, graph);
  out.traceHash = engine.traceHash();
  out.faultStats = tool.overlay().faultStats();
  out.divergences = tool.divergences();
  out.reported = tool.reportedDeadlocked();
  return out;
}

std::string compareOutcomes(const Outcome& formal,
                            const Outcome& distributed) {
  if (formal.deadlock != distributed.deadlock) {
    return support::format("verdict differs: formal=%d distributed=%d",
                           formal.deadlock ? 1 : 0,
                           distributed.deadlock ? 1 : 0);
  }
  if (formal.deadlocked != distributed.deadlocked) {
    return "deadlocked process sets differ";
  }
  if (formal.state != distributed.state) return "terminal state vectors differ";
  if (formal.blocked != distributed.blocked) return "blocked sets differ";
  if (formal.finished != distributed.finished) return "finished sets differ";
  if (formal.wfg != distributed.wfg) return "canonical wait-for graphs differ";
  // A deadlock is stable: a round may report only processes that are still
  // deadlocked when the run ends.
  for (const trace::ProcId p : distributed.reported) {
    if (!std::binary_search(formal.deadlocked.begin(), formal.deadlocked.end(),
                            p)) {
      return support::format(
          "a detection round reported process %d deadlocked, but it is not "
          "deadlocked at the terminal state",
          p);
    }
  }
  if (distributed.divergences > 0) {
    return support::format("the in-tool verifier diverged in %u round(s)",
                           distributed.divergences);
  }
  return {};
}

}  // namespace wst::fuzz
