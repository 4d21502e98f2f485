#include "wfg/graph.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/assert.hpp"
#include "support/strings.hpp"

namespace wst::wfg {

WaitForGraph::WaitForGraph(std::int32_t procCount)
    : nodes_(static_cast<std::size_t>(procCount)) {
  WST_ASSERT(procCount > 0, "WaitForGraph needs at least one process");
  for (std::int32_t i = 0; i < procCount; ++i) {
    nodes_[static_cast<std::size_t>(i)].proc = i;
  }
}

void WaitForGraph::setNode(NodeConditions node) {
  const auto idx = static_cast<std::size_t>(node.proc);
  WST_ASSERT(idx < nodes_.size(), "setNode: process out of range");
  nodes_[idx] = std::move(node);
}

const NodeConditions& WaitForGraph::node(trace::ProcId proc) const {
  const auto idx = static_cast<std::size_t>(proc);
  WST_ASSERT(idx < nodes_.size(), "node: process out of range");
  return nodes_[idx];
}

void WaitForGraph::pruneNodeCollectiveClauses(trace::ProcId proc) {
  const auto idx = static_cast<std::size_t>(proc);
  WST_ASSERT(idx < nodes_.size(), "prune: process out of range");
  NodeConditions& node = nodes_[idx];
  for (auto& clause : node.clauses) {
    if (clause.type != ClauseType::kCollective) continue;
    std::erase_if(clause.targets, [&](trace::ProcId target) {
      const NodeConditions& t = nodes_[static_cast<std::size_t>(target)];
      return t.blocked && t.inCollective && t.collComm == clause.comm &&
             t.collWaveIndex == clause.waveIndex;
    });
  }
  // A collective clause that pruned to empty means: every group member is
  // already in the wave — the wave is complete and the process is not
  // really waiting on it. Drop such clauses.
  std::erase_if(node.clauses, [](const Clause& c) {
    return c.type == ClauseType::kCollective && c.targets.empty();
  });
}

void WaitForGraph::pruneCollectiveCoWaiters() {
  // The predicate reads only header fields, which pruning never touches, so
  // pruning nodes in place and in order equals pruning a frozen snapshot.
  for (trace::ProcId i = 0; i < procCount(); ++i) pruneNodeCollectiveClauses(i);
}

std::uint64_t WaitForGraph::arcCount() const {
  std::uint64_t arcs = 0;
  for (const auto& node : nodes_) {
    for (const auto& clause : node.clauses) arcs += clause.targets.size();
  }
  return arcs;
}

CheckResult WaitForGraph::check() const {
  const std::size_t p = nodes_.size();
  std::vector<char> released(p, 0);
  std::vector<std::vector<char>> clauseSat(p);
  std::vector<std::size_t> unsatCount(p, 0);

  for (std::size_t i = 0; i < p; ++i) {
    if (!nodes_[i].blocked) {
      released[i] = 1;
      continue;
    }
    clauseSat[i].assign(nodes_[i].clauses.size(), 0);
    unsatCount[i] = nodes_[i].clauses.size();
    // An empty clause (no targets at all) can never be satisfied: the
    // process waits for something no process can provide. Keep it unsat.
  }

  CheckResult result;
  result.arcCount = arcCount();

  // Release fixpoint by scanning rounds. Each round only re-examines
  // still-unsatisfied clauses; a round with no change terminates. For the
  // all-blocked terminal states that deadlock detection actually runs on,
  // this completes in a single O(arcs) round.
  bool changed = true;
  while (changed) {
    changed = false;
    ++result.releaseRounds;
    for (std::size_t i = 0; i < p; ++i) {
      if (released[i] || !nodes_[i].blocked) continue;
      const auto& clauses = nodes_[i].clauses;
      for (std::size_t c = 0; c < clauses.size(); ++c) {
        if (clauseSat[i][c]) continue;
        for (trace::ProcId t : clauses[c].targets) {
          if (released[static_cast<std::size_t>(t)] != 0) {
            clauseSat[i][c] = 1;
            --unsatCount[i];
            break;
          }
        }
      }
      if (unsatCount[i] == 0) {
        released[i] = 1;
        changed = true;
      }
    }
  }

  for (std::size_t i = 0; i < p; ++i) {
    if (!released[i]) {
      result.deadlocked.push_back(static_cast<trace::ProcId>(i));
    }
  }
  result.deadlock = !result.deadlocked.empty();

  // Representative cycle: from any deadlocked process, repeatedly step to a
  // deadlocked target of an unsatisfied clause; a revisit closes the cycle.
  if (result.deadlock) {
    std::unordered_map<trace::ProcId, std::size_t> visitedAt;
    std::vector<trace::ProcId> path;
    trace::ProcId cur = result.deadlocked.front();
    for (;;) {
      const auto it = visitedAt.find(cur);
      if (it != visitedAt.end()) {
        result.cycle.assign(path.begin() + static_cast<std::ptrdiff_t>(it->second),
                            path.end());
        break;
      }
      visitedAt.emplace(cur, path.size());
      path.push_back(cur);
      const auto& node = nodes_[static_cast<std::size_t>(cur)];
      // The walk only ever visits deadlocked processes (the start is
      // deadlocked and every step goes to an unreleased target), which are
      // blocked, so their clauseSat entries are populated.
      const auto& sat = clauseSat[static_cast<std::size_t>(cur)];
      trace::ProcId next = -1;
      for (std::size_t c = 0; c < node.clauses.size() && next < 0; ++c) {
        // A clause satisfied by some released target is not blocking `cur`;
        // stepping through it would put a non-blocking arc in the cycle.
        if (sat[c] != 0) continue;
        for (trace::ProcId t : node.clauses[c].targets) {
          if (!released[static_cast<std::size_t>(t)]) {
            next = t;
            break;
          }
        }
      }
      if (next < 0) break;  // blocked on an unprovidable condition: no cycle
      cur = next;
    }
  }
  return result;
}

std::uint64_t WaitForGraph::writeDot(
    const std::function<void(std::string_view)>& sink,
    const std::vector<trace::ProcId>& restrictTo) const {
  std::uint64_t bytes = 0;
  const auto emit = [&](std::string_view s) {
    bytes += s.size();
    sink(s);
  };

  std::vector<char> included(nodes_.size(), restrictTo.empty() ? 1 : 0);
  for (const trace::ProcId proc : restrictTo) {
    WST_ASSERT(static_cast<std::size_t>(proc) < nodes_.size(),
               "writeDot: restrictTo process out of range");
    included[static_cast<std::size_t>(proc)] = 1;
  }

  // One line buffer for the whole graph; an arc line reuses its source's
  // "  p<src> -> p" prefix.
  std::string line;
  emit("digraph WaitForGraph {\n");
  emit("  rankdir=LR;\n");
  for (const auto& node : nodes_) {
    if (!node.blocked || !included[static_cast<std::size_t>(node.proc)]) {
      continue;
    }
    line.assign("  p");
    support::appendInt(line, node.proc);
    line += " [label=\"";
    support::appendInt(line, node.proc);
    line += ": ";
    support::appendDotEscaped(line, node.description);
    line += "\"];\n";
    emit(line);
  }
  for (const auto& node : nodes_) {
    if (!node.blocked || !included[static_cast<std::size_t>(node.proc)]) {
      continue;
    }
    line.assign("  p");
    support::appendInt(line, node.proc);
    line += " -> p";
    const std::size_t prefix = line.size();
    for (const Clause& clause : node.clauses) {
      const std::string_view tail =
          clause.targets.size() > 1 && clause.type == ClauseType::kPlain
              ? " [style=dashed, label=\"OR\"];\n"
              : ";\n";
      for (const trace::ProcId t : clause.targets) {
        if (!included[static_cast<std::size_t>(t)]) continue;
        line.resize(prefix);
        support::appendInt(line, t);
        line += tail;
        emit(line);
      }
    }
  }
  emit("}\n");
  return bytes;
}

std::string WaitForGraph::toDot(
    const std::vector<trace::ProcId>& restrictTo) const {
  std::string out;
  writeDot([&](std::string_view s) { out.append(s); }, restrictTo);
  return out;
}

}  // namespace wst::wfg
