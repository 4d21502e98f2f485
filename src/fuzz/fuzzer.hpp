// Fuzz campaign driver behind `wst fuzz`: generate scenarios from a seed
// stream, differential-check each against the formal oracle (fault
// injection on and off), shrink any divergence, and write replayable
// artifacts. Fully deterministic for a given configuration.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "fuzz/oracle.hpp"
#include "fuzz/scenario.hpp"

namespace wst::fuzz {

struct FuzzConfig {
  std::uint64_t seed = 1;
  std::int32_t runs = 100;
  /// Distributed-run engine threads (>= 1).
  std::int32_t threads = 1;
  /// Wait-state batching for the distributed runs.
  bool batch = false;
  /// Run the hierarchical in-tree check (with the in-tool differential
  /// guard) in every distributed run.
  bool hierarchical = false;
  /// Certify each scenario statically and run the distributed side in
  /// hybrid sampling mode (RunOptions::hybrid).
  bool hybrid = false;
  /// When false, skip the fault-injected variant of each run.
  bool faults = true;
  /// Generate crash-fault scenarios (`--fault-kinds crash`): every scenario
  /// carries a tool-node crash-stop plan, armed in all distributed variants.
  bool crashFaults = false;
  /// Planted-bug hook forwarded to the distributed tool.
  std::int32_t injectBug = 0;
  /// Where divergence artifacts are written.
  std::string outDir = ".";
  /// Stop starting new runs after this wall-clock budget (0 = no budget).
  double budgetSec = 0.0;
  bool shrinkOnDivergence = true;
  std::size_t shrinkBudget = 400;
  /// When non-empty, save structurally interesting generated scenarios
  /// here (corpus curation; see tests/fuzz/corpus).
  std::string emitCorpusDir;
};

struct FuzzReport {
  std::int32_t executed = 0;     // scenarios generated and checked
  std::int32_t divergences = 0;  // scenarios with oracle disagreement
  bool budgetExhausted = false;
  std::vector<std::string> artifacts;  // replay files written
};

/// Run the campaign, logging progress and divergences to `log`.
FuzzReport runFuzzCampaign(const FuzzConfig& config, std::ostream& log);

/// Replay one serialized scenario (`wst fuzz --replay`): differential-check
/// it with the given options and log both outcomes. Returns the
/// compareOutcomes() reason (empty = agreement).
std::string replayScenario(const Scenario& scenario, const RunOptions& options,
                           std::ostream& log);

}  // namespace wst::fuzz
