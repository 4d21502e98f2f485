// Wait-for graph with AND/OR semantics and graph-based deadlock detection.
//
// This is the "WfgCheck" stage of the paper's tool (Figure 1): given, for
// every process, whether it is blocked and what it waits for, decide whether
// a deadlock exists and which processes participate.
//
// Wait-for conditions form a two-level structure per process:
//
//   blocked(i)  waits for  AND over clauses; each clause is OR over targets
//
// which subsumes both semantics of the underlying graph model (Hilbrich et
// al., ICS'09 [9], the paper's companion approach):
//
//  * a blocked send / known-source receive / matched wildcard: one clause,
//    one target (plain AND arc);
//  * a blocked collective: one single-target clause per group member whose
//    participating operation is not yet active (AND);
//  * an unmatched wildcard receive: one clause with every potential sender
//    (OR) — this is what produces the p²-arc graphs of the paper's wildcard
//    stress test (Figure 10);
//  * MPI_Waitall: one clause per incomplete associated operation (AND);
//  * MPI_Waitany/Waitsome: a single clause with one target per incomplete
//    associated operation (OR).
//
// Deadlock criterion: release simulation (fixpoint). Non-blocked processes
// can progress. A blocked process is released once every clause contains at
// least one released target. Processes never released are deadlocked. At a
// consistent state of the wait state transition system (paper §3.2/§5) the
// blocked set is exact, making this criterion necessary and sufficient.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/op.hpp"

namespace wst::wfg {

/// Marks clauses whose target set the TBON root must refine: a collective
/// clause initially targets the whole group; members already active in the
/// same wave are pruned (they are co-waiters, not blockers).
enum class ClauseType : std::uint8_t { kPlain, kCollective };

/// One OR-clause of a blocked process's wait condition.
struct Clause {
  std::vector<trace::ProcId> targets;
  ClauseType type = ClauseType::kPlain;
  /// For kCollective: identifies the wave so the root can prune co-waiters.
  mpi::CommId comm = -1;
  std::uint32_t waveIndex = 0;
  /// Human-readable condition for reports, e.g. "waits for send from 3".
  std::string reason;
};

/// Wait-for conditions of one process at a consistent state.
struct NodeConditions {
  trace::ProcId proc = -1;
  bool blocked = false;
  /// Satisfying every clause unblocks the process (AND over clauses).
  std::vector<Clause> clauses;
  /// Description of the active operation, e.g. "Recv(from:ANY, tag:0)".
  std::string description;
  /// The process reached MPI_Finalize: it can never block again. Carried as
  /// a first-class flag (not the description string) so consumers like
  /// IncrementalWfg::finishedCount() cannot be corrupted by label drift.
  bool finished = false;
  /// For blocked collectives: the wave this process participates in
  /// (used by the root's pruning step). Valid when inCollective is true.
  bool inCollective = false;
  mpi::CommId collComm = -1;
  std::uint32_t collWaveIndex = 0;
};

struct CheckResult {
  bool deadlock = false;
  /// Processes that can never be released (empty if no deadlock).
  std::vector<trace::ProcId> deadlocked;
  /// A representative dependency cycle among deadlocked processes.
  std::vector<trace::ProcId> cycle;
  std::uint64_t arcCount = 0;
  std::uint64_t releaseRounds = 0;
};

class WaitForGraph {
 public:
  explicit WaitForGraph(std::int32_t procCount);

  std::int32_t procCount() const {
    return static_cast<std::int32_t>(nodes_.size());
  }

  /// Install the conditions of one process (replaces previous conditions).
  void setNode(NodeConditions node);
  const NodeConditions& node(trace::ProcId proc) const;

  /// Prune collective clauses: a target that is itself blocked in the *same*
  /// collective wave is a co-waiter, not a blocker, and is removed. Run once
  /// after all nodes are installed (the paper's root performs this as it
  /// assembles gathered wait-for information).
  void pruneCollectiveCoWaiters();

  /// Prune the collective clauses of one installed process against the
  /// current headers of this graph. The pruning predicate reads only header
  /// fields (blocked/inCollective/collComm/collWaveIndex), which pruning
  /// never mutates, so per-node pruning composes to exactly
  /// pruneCollectiveCoWaiters() — this is what lets the incremental root
  /// re-prune only the nodes a delta touched.
  void pruneNodeCollectiveClauses(trace::ProcId proc);

  /// Total number of arcs (sum of clause target list sizes).
  std::uint64_t arcCount() const;

  /// Run the release fixpoint and report deadlocked processes.
  CheckResult check() const;

  /// Emit the graph in Graphviz DOT format through `sink` (streaming: the
  /// p²-arc graphs of the wildcard stress test would otherwise require the
  /// whole multi-hundred-MB string in memory). Returns bytes emitted.
  /// If `restrictTo` is non-empty, only those processes are emitted.
  std::uint64_t writeDot(const std::function<void(std::string_view)>& sink,
                         const std::vector<trace::ProcId>& restrictTo = {}) const;

  /// Convenience: DOT as a string (small graphs only).
  std::string toDot(const std::vector<trace::ProcId>& restrictTo = {}) const;

 private:
  std::vector<NodeConditions> nodes_;
};

}  // namespace wst::wfg
