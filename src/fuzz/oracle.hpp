// Differential oracle: run a scenario once through the centralized
// reference (Recorder -> MatchedTrace -> formal TransitionSystem) and once
// through the full distributed tool, then compare verdict, terminal state
// vector, blocked/finished sets and the canonicalized wait-for graph.
// Both runs use the zero-overhead tool configuration so they observe the
// same execution (identical wildcard matching), which makes any difference
// a protocol bug rather than schedule noise.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/scenario.hpp"
#include "must/serve.hpp"
#include "must/tool.hpp"
#include "tbon/overlay.hpp"
#include "trace/op.hpp"

namespace wst::fuzz {

/// Knobs of one distributed run (the fuzzer sweeps these).
struct RunOptions {
  /// Apply the scenario's fault plan (drop/dup/delay/jitter) to the overlay.
  bool faults = true;
  /// Engine threads (>= 1); the outcome is the same for every count.
  std::int32_t threads = 1;
  /// Enable wait-state message batching.
  bool batch = false;
  /// Run the distributed tool with the hierarchical (condensed) check; the
  /// verifier every distributed run arms then runs the raw root check next
  /// to it.
  bool hierarchical = false;
  /// Hybrid static/dynamic mode: certify the scenario with the static
  /// classifier (fuzz/analyze.cpp) and hand the certificate to the tool, so
  /// certified-prefix operations are sampled instead of tracked. Verdicts
  /// and terminal wait-for graphs must be identical either way — the fuzz
  /// campaigns sweep this flag to enforce that.
  bool hybrid = false;
  /// Planted-bug hook (ToolConfig::injectBug).
  std::int32_t injectBug = 0;
};

/// What one oracle side observed at the terminal state.
struct Outcome {
  bool deadlock = false;
  std::vector<trace::ProcId> deadlocked;
  /// Distributed side only: every process any detection round reported
  /// deadlocked, sorted — including rounds before the terminal state.
  std::vector<trace::ProcId> reported;
  std::vector<trace::LocalTs> state;
  std::vector<bool> blocked;
  std::vector<bool> finished;
  /// Canonical wait-for-graph serialization: structural fields only
  /// (blocked flag, clause type/comm/wave/targets), no free-text reasons,
  /// clause and target order normalized — the two sides phrase reasons
  /// differently but must agree on structure.
  std::string wfg;
  std::uint64_t traceHash = 0;
  tbon::FaultStats faultStats{};
  /// Distributed side only: detection rounds where the tool's verifier
  /// (ToolConfig::verify) saw a reference check disagree; must stay 0.
  std::uint32_t divergences = 0;

  /// One-line digest for divergence reports.
  std::string summary() const;
};

/// A session running `scenario` under the oracle's zero-overhead tool
/// configuration, so a served verdict is comparable with a fuzz replay of
/// the same scenario.
must::SessionSpec sessionSpec(std::string name,
                              std::shared_ptr<const Scenario> scenario);

/// Centralized reference run.
Outcome runFormalOracle(const Scenario& scenario);

/// Full distributed tool run.
Outcome runDistributedOracle(const Scenario& scenario,
                             const RunOptions& options);

/// The distributed side's observation of a finished run: the terminal
/// graph's verdict, state and sets, every round's reported set, the
/// verifier's divergences and the engine's trace hash. Call after
/// engine.run() returned.
Outcome observe(const must::DistributedTool& tool,
                const sim::Scheduler& engine);

/// Empty string = agreement; otherwise a human-readable description of the
/// first difference found.
std::string compareOutcomes(const Outcome& formal, const Outcome& distributed);

}  // namespace wst::fuzz
