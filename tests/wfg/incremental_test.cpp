// IncrementalWfg equivalence: for any sequence of per-round deltas, the
// persistent graph with its re-pruned delta must match a from-scratch
// rebuild — same verdict, deadlock set, cycle, and DOT rendering.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "wfg/graph.hpp"
#include "wfg/incremental.hpp"

namespace wst::wfg {
namespace {

constexpr std::int32_t kProcs = 12;

NodeConditions runningNode(trace::ProcId p) {
  NodeConditions n;
  n.proc = p;
  n.blocked = false;
  n.description = "running";
  return n;
}

NodeConditions finishedNode(trace::ProcId p) {
  NodeConditions n;
  n.proc = p;
  n.blocked = false;
  n.description = "finished";
  n.finished = true;
  return n;
}

NodeConditions blockedP2p(trace::ProcId p, std::mt19937& rng) {
  NodeConditions n;
  n.proc = p;
  n.blocked = true;
  n.description = "Recv";
  std::uniform_int_distribution<int> clauseCount(1, 2);
  std::uniform_int_distribution<int> targetCount(1, 3);
  std::uniform_int_distribution<trace::ProcId> target(0, kProcs - 1);
  const int clauses = clauseCount(rng);
  for (int c = 0; c < clauses; ++c) {
    Clause clause;
    clause.reason = "waits";
    const int targets = targetCount(rng);
    for (int t = 0; t < targets; ++t) {
      trace::ProcId other = target(rng);
      if (other == p) other = (other + 1) % kProcs;
      clause.targets.push_back(other);
    }
    n.clauses.push_back(std::move(clause));
  }
  return n;
}

NodeConditions blockedCollective(trace::ProcId p, std::uint32_t wave) {
  NodeConditions n;
  n.proc = p;
  n.blocked = true;
  n.description = "Barrier";
  n.inCollective = true;
  n.collComm = 0;
  n.collWaveIndex = wave;
  Clause clause;
  clause.type = ClauseType::kCollective;
  clause.comm = 0;
  clause.waveIndex = wave;
  clause.reason = "collective";
  for (trace::ProcId t = 0; t < kProcs; ++t) {
    if (t != p) clause.targets.push_back(t);
  }
  n.clauses.push_back(std::move(clause));
  return n;
}

NodeConditions randomNode(trace::ProcId p, std::mt19937& rng) {
  std::uniform_int_distribution<int> kind(0, 5);
  switch (kind(rng)) {
    case 0: return finishedNode(p);
    case 1:
    case 2: return runningNode(p);
    case 3: {
      std::uniform_int_distribution<std::uint32_t> wave(0, 2);
      return blockedCollective(p, wave(rng));
    }
    default: return blockedP2p(p, rng);
  }
}

std::string checkSignature(const WaitForGraph& graph, const CheckResult& r) {
  std::string sig = r.deadlock ? "D" : "-";
  sig += "|deadlocked:";
  for (const trace::ProcId p : r.deadlocked) sig += std::to_string(p) + ",";
  sig += "|cycle:";
  for (const trace::ProcId p : r.cycle) sig += std::to_string(p) + ",";
  sig += "|dot:";
  sig += graph.toDot(r.deadlocked);
  return sig;
}

/// Distinct (comm, wave) pairs among currently blocked collective nodes —
/// the exact number of live entries waveMembers_ may hold.
std::size_t liveWaveCount(const std::vector<NodeConditions>& latest) {
  std::set<std::pair<mpi::CommId, std::uint32_t>> waves;
  for (const NodeConditions& n : latest) {
    if (n.blocked && n.inCollective) {
      waves.emplace(n.collComm, n.collWaveIndex);
    }
  }
  return waves.size();
}

TEST(IncrementalWfg, RandomDeltaSequencesMatchColdRebuild) {
  for (std::uint32_t seed = 0; seed < 20; ++seed) {
    std::mt19937 rng(seed);
    IncrementalWfg inc(kProcs);
    std::vector<NodeConditions> latest(kProcs);
    // First round stages everyone.
    for (trace::ProcId p = 0; p < kProcs; ++p) {
      latest[static_cast<std::size_t>(p)] = randomNode(p, rng);
      inc.stage(latest[static_cast<std::size_t>(p)]);
    }
    inc.commit();
    // Up to every process: large deltas take the same path as small ones.
    std::uniform_int_distribution<int> deltaSize(0, kProcs);
    std::uniform_int_distribution<trace::ProcId> pick(0, kProcs - 1);
    for (int round = 0; round < 12; ++round) {
      std::vector<char> staged(kProcs, 0);
      const int changes = deltaSize(rng);
      for (int c = 0; c < changes; ++c) {
        const trace::ProcId p = pick(rng);
        if (staged[static_cast<std::size_t>(p)]) continue;
        staged[static_cast<std::size_t>(p)] = 1;
        latest[static_cast<std::size_t>(p)] = randomNode(p, rng);
        inc.stage(latest[static_cast<std::size_t>(p)]);
      }
      const auto result = inc.commit();
      WaitForGraph cold = inc.buildFullGraph();
      const CheckResult coldCheck = cold.check();
      EXPECT_EQ(checkSignature(inc.graph(), result.check),
                checkSignature(cold, coldCheck))
          << "seed=" << seed << " round=" << round
          << " changed=" << result.changed;
      // Emptied wave entries must be erased: the map holds exactly the live
      // waves, so long runs cannot grow it without bound.
      EXPECT_EQ(inc.waveEntryCount(), liveWaveCount(latest))
          << "seed=" << seed << " round=" << round;
    }
  }
}

TEST(IncrementalWfg, FinishedCountIgnoresDescriptionDrift) {
  // finishedCount must follow the first-class flag, not the label: a
  // relabeled description neither adds nor removes finished processes.
  IncrementalWfg inc(2);
  NodeConditions drifted = runningNode(0);
  drifted.description = "finished";  // label says finished, flag says no
  NodeConditions flagged = finishedNode(1);
  flagged.description = "done (finalized)";  // label drifted, flag says yes
  inc.stage(drifted);
  inc.stage(flagged);
  inc.commit();
  EXPECT_EQ(inc.finishedCount(), 1u);
}

TEST(IncrementalWfg, EmptyDeltaRoundKeepsVerdict) {
  std::mt19937 rng(42);
  IncrementalWfg inc(kProcs);
  for (trace::ProcId p = 0; p < kProcs; ++p) inc.stage(blockedP2p(p, rng));
  const auto first = inc.commit();
  const auto second = inc.commit();  // no staged nodes at all
  EXPECT_EQ(second.changed, 0u);
  EXPECT_EQ(second.repruned, 0u);
  EXPECT_EQ(first.check.deadlock, second.check.deadlock);
  EXPECT_EQ(first.check.deadlocked, second.check.deadlocked);
  EXPECT_EQ(first.check.cycle, second.check.cycle);
}

TEST(IncrementalWfg, UnblockReleasesDependentChain) {
  // 0 <- 1 <- 2 all blocked in a chain rooted at a blocked 0; when 0 turns
  // out to be running in the next round, the whole chain must release even
  // though 1 and 2 were not re-gathered.
  IncrementalWfg inc(3);
  NodeConditions n0;
  n0.proc = 0;
  n0.blocked = true;
  n0.description = "Recv";
  Clause c0;
  c0.targets = {1};
  n0.clauses.push_back(c0);
  NodeConditions n1 = n0;
  n1.proc = 1;
  n1.clauses[0].targets = {0};
  NodeConditions n2 = n0;
  n2.proc = 2;
  n2.clauses[0].targets = {1};
  inc.stage(n0);
  inc.stage(n1);
  inc.stage(n2);
  const auto first = inc.commit();
  EXPECT_TRUE(first.check.deadlock);
  ASSERT_EQ(first.check.deadlocked.size(), 3u);

  inc.stage(runningNode(0));
  const auto second = inc.commit();
  EXPECT_FALSE(second.check.deadlock);
  EXPECT_TRUE(second.check.deadlocked.empty());
  EXPECT_EQ(second.repruned, 1u);
}

TEST(IncrementalWfg, ReblockedReleaserDeadlocksItsDependents) {
  // 2 was released because 1 was released because 0 was running. When 0
  // becomes blocked on 2, the releases of 1 and 2 must not carry over from
  // the previous round: only 0 is re-gathered, yet all three deadlock.
  IncrementalWfg inc(3);
  NodeConditions n1;
  n1.proc = 1;
  n1.blocked = true;
  n1.description = "Recv";
  Clause c;
  c.targets = {0};
  n1.clauses.push_back(c);
  NodeConditions n2 = n1;
  n2.proc = 2;
  n2.clauses[0].targets = {1};
  inc.stage(runningNode(0));
  inc.stage(n1);
  inc.stage(n2);
  const auto first = inc.commit();
  EXPECT_FALSE(first.check.deadlock);

  NodeConditions n0;
  n0.proc = 0;
  n0.blocked = true;
  n0.description = "Recv";
  Clause c0;
  c0.targets = {2};
  n0.clauses.push_back(c0);
  inc.stage(n0);
  const auto second = inc.commit();
  WaitForGraph cold = inc.buildFullGraph();
  const CheckResult coldCheck = cold.check();
  EXPECT_EQ(second.check.deadlock, coldCheck.deadlock);
  EXPECT_EQ(second.check.deadlocked, coldCheck.deadlocked);
  EXPECT_TRUE(second.check.deadlock);  // 0 -> 2 -> 1 -> 0 cycle
  EXPECT_EQ(second.check.deadlocked, (std::vector<trace::ProcId>{0, 1, 2}));
}

TEST(IncrementalWfg, FinishedCountTracksLatestConditions) {
  IncrementalWfg inc(4);
  inc.stage(finishedNode(0));
  inc.stage(runningNode(1));
  inc.stage(runningNode(2));
  inc.stage(runningNode(3));
  inc.commit();
  EXPECT_EQ(inc.finishedCount(), 1u);
  inc.stage(finishedNode(1));
  inc.stage(finishedNode(2));
  inc.commit();
  EXPECT_EQ(inc.finishedCount(), 3u);
  inc.stage(runningNode(1));  // a process can only *gain* finished in MPI,
  inc.commit();               // but the container must track any update
  EXPECT_EQ(inc.finishedCount(), 2u);
}

}  // namespace
}  // namespace wst::wfg
