// Persistent wait-for graph across detection rounds.
//
// The root of the incremental detection pipeline (DESIGN.md §10) keeps one
// WaitForGraph alive across detection rounds. Each round stages only the
// NodeConditions of processes whose wait state changed (the delta gather),
// then commit():
//
//  1. applies the staged nodes to an *unpruned* pristine store,
//  2. re-prunes collective clauses of exactly the nodes a delta could have
//     affected (the changed nodes plus all members of collective waves whose
//     membership changed — pruning is destructive, so affected nodes are
//     re-derived from their pristine conditions),
//  3. runs the plain release fixpoint (WaitForGraph::check()) over the
//     maintained graph.
//
// The maintained graph equals a full rebuild from the pristine store, so
// the check is byte-identical to the non-incremental path.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "wfg/graph.hpp"

namespace wst::wfg {

class IncrementalWfg {
 public:
  explicit IncrementalWfg(std::int32_t procCount);

  /// Stage the (unpruned) conditions of one changed process for the next
  /// commit. The first round must stage every process (the first gather is
  /// always full: the root has no base epoch to delta against).
  void stage(NodeConditions node);

  struct RoundResult {
    CheckResult check;
    std::uint32_t changed = 0;   // staged nodes applied this round
    std::uint32_t repruned = 0;  // nodes re-pruned against pristine
    std::uint64_t buildNs = 0;   // wall time: apply delta + re-prune
    std::uint64_t checkNs = 0;   // wall time: deadlock check
  };

  /// Apply the staged delta and run the deadlock check.
  RoundResult commit();

  /// Drop the staged delta without committing. Used when a detection round
  /// is torn by a crash: the partial gather is abandoned and the restarted
  /// round re-collects against the last *committed* epoch, so staging the
  /// torn round's replies would double-apply them.
  void discardStaged() { staged_.clear(); }

  /// The persistent (pruned) graph of the last commit — what reports and
  /// DOT output are generated from.
  const WaitForGraph& graph() const { return graph_; }

  /// Unpruned conditions of the last commit, for side-by-side verification:
  /// a graph built from these via setNode + pruneCollectiveCoWaiters +
  /// check() is the reference full path.
  const std::vector<NodeConditions>& pristine() const { return pristine_; }

  /// Build the reference full graph from the pristine store (verify mode).
  WaitForGraph buildFullGraph() const;

  /// Processes whose last reported conditions carry the finished flag.
  std::uint32_t finishedCount() const { return finishedCount_; }

  /// Number of collective waves currently holding at least one member.
  /// Bounded by the number of *live* waves: emptied entries are erased, so
  /// long runs with many completed waves cannot grow the map without bound.
  std::size_t waveEntryCount() const { return waveMembers_.size(); }

  std::int32_t procCount() const { return procCount_; }

 private:
  static std::uint64_t waveKey(mpi::CommId comm, std::uint32_t wave) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(comm))
            << 32) |
           wave;
  }

  std::int32_t procCount_;
  bool first_ = true;

  WaitForGraph graph_;                  // pruned, persistent across rounds
  std::vector<NodeConditions> pristine_;  // unpruned node conditions
  /// Current members of each collective wave (per pristine headers).
  std::unordered_map<std::uint64_t, std::vector<trace::ProcId>> waveMembers_;
  std::vector<NodeConditions> staged_;
  std::vector<char> finished_;
  std::uint32_t finishedCount_ = 0;
};

}  // namespace wst::wfg
