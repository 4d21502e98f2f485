// Wait-for graph construction and the release-fixpoint deadlock criterion.
#include <gtest/gtest.h>

#include <string>

#include "wfg/graph.hpp"
#include "wfg/report.hpp"

namespace wst::wfg {
namespace {

NodeConditions blockedOn(trace::ProcId proc,
                         std::vector<std::vector<trace::ProcId>> clauses) {
  NodeConditions node;
  node.proc = proc;
  node.blocked = true;
  for (auto& targets : clauses) {
    Clause clause;
    clause.targets = std::move(targets);
    node.clauses.push_back(std::move(clause));
  }
  return node;
}

NodeConditions running(trace::ProcId proc) {
  NodeConditions node;
  node.proc = proc;
  node.blocked = false;
  return node;
}

TEST(WaitForGraph, NoBlockedProcessesNoDeadlock) {
  WaitForGraph g(3);
  for (trace::ProcId p = 0; p < 3; ++p) g.setNode(running(p));
  const auto result = g.check();
  EXPECT_FALSE(result.deadlock);
  EXPECT_TRUE(result.deadlocked.empty());
}

TEST(WaitForGraph, TwoCycleIsDeadlock) {
  WaitForGraph g(2);
  g.setNode(blockedOn(0, {{1}}));
  g.setNode(blockedOn(1, {{0}}));
  const auto result = g.check();
  EXPECT_TRUE(result.deadlock);
  EXPECT_EQ(result.deadlocked, (std::vector<trace::ProcId>{0, 1}));
  EXPECT_EQ(result.cycle.size(), 2u);
  EXPECT_EQ(result.arcCount, 2u);
}

TEST(WaitForGraph, WaitingOnRunningProcessReleases) {
  WaitForGraph g(2);
  g.setNode(blockedOn(0, {{1}}));
  g.setNode(running(1));
  const auto result = g.check();
  EXPECT_FALSE(result.deadlock);
}

TEST(WaitForGraph, ChainReleasesTransitively) {
  WaitForGraph g(4);
  g.setNode(blockedOn(0, {{1}}));
  g.setNode(blockedOn(1, {{2}}));
  g.setNode(blockedOn(2, {{3}}));
  g.setNode(running(3));
  const auto result = g.check();
  EXPECT_FALSE(result.deadlock);
  EXPECT_GE(result.releaseRounds, 2u);  // needs multiple release rounds
}

TEST(WaitForGraph, OrClauseReleasedByAnyTarget) {
  WaitForGraph g(3);
  g.setNode(blockedOn(0, {{1, 2}}));  // waits for 1 OR 2
  g.setNode(blockedOn(1, {{0}}));     // deadlocked with nobody? waits on 0
  g.setNode(running(2));
  const auto result = g.check();
  // 2 is running, so 0's OR clause is satisfiable; 0 releases, then 1.
  EXPECT_FALSE(result.deadlock);
}

TEST(WaitForGraph, AndClausesNeedEveryClauseSatisfied) {
  WaitForGraph g(3);
  g.setNode(blockedOn(0, {{1}, {2}}));  // waits for 1 AND 2
  g.setNode(running(1));
  g.setNode(blockedOn(2, {{0}}));
  const auto result = g.check();
  // Clause {1} satisfied, clause {2} never: 0 and 2 deadlock.
  EXPECT_TRUE(result.deadlock);
  EXPECT_EQ(result.deadlocked, (std::vector<trace::ProcId>{0, 2}));
}

TEST(WaitForGraph, WildcardAllToAllOrDeadlock) {
  // Paper's wildcard stress test: every process waits (OR) on all others —
  // p*(p-1) arcs, all deadlocked.
  const std::int32_t p = 32;
  WaitForGraph g(p);
  for (trace::ProcId i = 0; i < p; ++i) {
    std::vector<trace::ProcId> targets;
    for (trace::ProcId j = 0; j < p; ++j) {
      if (j != i) targets.push_back(j);
    }
    g.setNode(blockedOn(i, {targets}));
  }
  const auto result = g.check();
  EXPECT_TRUE(result.deadlock);
  EXPECT_EQ(result.deadlocked.size(), static_cast<std::size_t>(p));
  EXPECT_EQ(result.arcCount, static_cast<std::uint64_t>(p) * (p - 1));
  EXPECT_FALSE(result.cycle.empty());
}

TEST(WaitForGraph, CycleWalkSkipsSatisfiedClauses) {
  // 0's first clause is an OR satisfied by the running process 3, but its
  // first *listed* target is the deadlocked 1. The representative-cycle walk
  // must not step through the satisfied clause (0 -> 1 is not a blocking
  // arc): the real cycle is 0 -> 2 -> 0 via the unsatisfied second clause.
  WaitForGraph g(4);
  g.setNode(blockedOn(0, {{1, 3}, {2}}));
  g.setNode(blockedOn(1, {{0}}));
  g.setNode(blockedOn(2, {{0}}));
  g.setNode(running(3));
  const auto result = g.check();
  EXPECT_TRUE(result.deadlock);
  EXPECT_EQ(result.deadlocked, (std::vector<trace::ProcId>{0, 1, 2}));
  EXPECT_EQ(result.cycle, (std::vector<trace::ProcId>{0, 2}));
}

TEST(WaitForGraph, EmptyClauseIsUnsatisfiable) {
  WaitForGraph g(2);
  NodeConditions stuck = blockedOn(0, {});
  stuck.clauses.push_back(Clause{});  // no targets: unprovidable condition
  g.setNode(std::move(stuck));
  g.setNode(running(1));
  const auto result = g.check();
  EXPECT_TRUE(result.deadlock);
  EXPECT_EQ(result.deadlocked, (std::vector<trace::ProcId>{0}));
  EXPECT_TRUE(result.cycle.empty());  // blocked on nothing reachable
}

TEST(WaitForGraph, CollectiveCoWaitersArePruned) {
  // Three processes in the same barrier wave, one straggler (3) still
  // running. Without pruning, the co-waiters would form a false cycle.
  WaitForGraph g(4);
  for (trace::ProcId i = 0; i < 3; ++i) {
    NodeConditions node;
    node.proc = i;
    node.blocked = true;
    node.inCollective = true;
    node.collComm = 0;
    node.collWaveIndex = 7;
    for (trace::ProcId j = 0; j < 4; ++j) {
      if (j == i) continue;
      Clause clause;
      clause.targets.push_back(j);
      clause.type = ClauseType::kCollective;
      clause.comm = 0;
      clause.waveIndex = 7;
      node.clauses.push_back(std::move(clause));
    }
    g.setNode(std::move(node));
  }
  g.setNode(running(3));
  g.pruneCollectiveCoWaiters();
  const auto result = g.check();
  EXPECT_FALSE(result.deadlock);
  // After pruning, each blocked node waits only on the straggler.
  EXPECT_EQ(g.arcCount(), 3u);
}

TEST(WaitForGraph, CollectiveDeadlockWhenStragglerIsBlocked) {
  WaitForGraph g(3);
  for (trace::ProcId i = 0; i < 2; ++i) {
    NodeConditions node;
    node.proc = i;
    node.blocked = true;
    node.inCollective = true;
    node.collComm = 0;
    node.collWaveIndex = 0;
    for (trace::ProcId j = 0; j < 3; ++j) {
      if (j == i) continue;
      Clause clause;
      clause.targets.push_back(j);
      clause.type = ClauseType::kCollective;
      clause.comm = 0;
      clause.waveIndex = 0;
      node.clauses.push_back(std::move(clause));
    }
    g.setNode(std::move(node));
  }
  g.setNode(blockedOn(2, {{0}}));  // straggler waits on a barrier waiter
  g.pruneCollectiveCoWaiters();
  const auto result = g.check();
  EXPECT_TRUE(result.deadlock);
  EXPECT_EQ(result.deadlocked.size(), 3u);
}

/// Four processes: 0 waits OR on {1, 2, 3} and on 1, 1 on 0, 2 in a
/// collective on {0, 1}, 3 runs.
WaitForGraph dotGraph() {
  WaitForGraph g(4);
  auto n0 = blockedOn(0, {{1, 2, 3}, {1}});
  n0.description = "Recv(from:ANY) \"q\" \\ <&>";
  g.setNode(std::move(n0));
  auto n1 = blockedOn(1, {{0}});
  n1.description = "Send(to:0)";
  g.setNode(std::move(n1));
  auto n2 = blockedOn(2, {{0, 1}});
  n2.clauses[0].type = ClauseType::kCollective;  // AND, drawn solid
  n2.description = "Barrier()";
  g.setNode(std::move(n2));
  g.setNode(running(3));
  return g;
}

TEST(WaitForGraph, DotOutputContainsBlockedNodesAndArcs) {
  EXPECT_EQ(dotGraph().toDot(),
            "digraph WaitForGraph {\n"
            "  rankdir=LR;\n"
            "  p0 [label=\"0: Recv(from:ANY) \\\"q\\\" \\\\ <&>\"];\n"
            "  p1 [label=\"1: Send(to:0)\"];\n"
            "  p2 [label=\"2: Barrier()\"];\n"
            "  p0 -> p1 [style=dashed, label=\"OR\"];\n"
            "  p0 -> p2 [style=dashed, label=\"OR\"];\n"
            "  p0 -> p3 [style=dashed, label=\"OR\"];\n"
            "  p0 -> p1;\n"
            "  p1 -> p0;\n"
            "  p2 -> p0;\n"
            "  p2 -> p1;\n"
            "}\n");
}

TEST(WaitForGraph, DotRestrictsToRequestedProcesses) {
  WaitForGraph g(3);
  g.setNode(blockedOn(0, {{1}}));
  g.setNode(blockedOn(1, {{0}}));
  g.setNode(blockedOn(2, {{0}}));
  EXPECT_EQ(g.toDot({0, 1}),
            "digraph WaitForGraph {\n"
            "  rankdir=LR;\n"
            "  p0 [label=\"0: \"];\n"
            "  p1 [label=\"1: \"];\n"
            "  p0 -> p1;\n"
            "  p1 -> p0;\n"
            "}\n");
  EXPECT_EQ(dotGraph().toDot({0, 2}),
            "digraph WaitForGraph {\n"
            "  rankdir=LR;\n"
            "  p0 [label=\"0: Recv(from:ANY) \\\"q\\\" \\\\ <&>\"];\n"
            "  p2 [label=\"2: Barrier()\"];\n"
            "  p0 -> p2 [style=dashed, label=\"OR\"];\n"
            "  p2 -> p0;\n"
            "}\n");
}

TEST(WaitForGraph, WriteDotStreamsAndCountsBytes) {
  WaitForGraph g(2);
  g.setNode(blockedOn(0, {{1}}));
  g.setNode(blockedOn(1, {{0}}));
  std::uint64_t sunk = 0;
  const std::uint64_t bytes =
      g.writeDot([&](std::string_view s) { sunk += s.size(); });
  EXPECT_EQ(bytes, sunk);
  EXPECT_GT(bytes, 0u);
}

TEST(Report, SummaryAndHtmlForDeadlock) {
  WaitForGraph g(2);
  auto n0 = blockedOn(0, {{1}});
  n0.description = "Recv(from:1)";
  n0.clauses[0].reason = "waits for a send from rank 1";
  g.setNode(std::move(n0));
  g.setNode(blockedOn(1, {{0}}));
  const auto check = g.check();
  const auto report = makeReport(g, check);
  EXPECT_TRUE(report.deadlock);
  EXPECT_EQ(report.summary,
            "DEADLOCK: 2 process(es) cannot continue, representative cycle "
            "0 -> 1 -> 0");
  EXPECT_EQ(summaryLine(check), report.summary);
  EXPECT_EQ(report.html,
            "<!DOCTYPE html>\n"
            "<html><head><meta charset=\"utf-8\"><title>MUST-style deadlock "
            "report</title></head><body>\n"
            "<h1>DEADLOCK: 2 process(es) cannot continue, representative "
            "cycle 0 -&gt; 1 -&gt; 0</h1>\n"
            "<p>Wait-for graph: 2 arcs across 2 processes.</p>\n"
            "<table border=\"1\"><tr><th>Process</th><th>Active call</th>"
            "<th>Wait-for conditions</th></tr>\n"
            "<tr><td>0</td><td>Recv(from:1)</td><td>waits for a send from "
            "rank 1</td></tr>\n"
            "<tr><td>1</td><td></td><td>1 dependencies</td></tr>\n"
            "</table>\n"
            "</body></html>\n");
  EXPECT_EQ(report.dotBytes, g.toDot(check.deadlocked).size());
}

TEST(Report, HtmlDetailsAtMost64Processes) {
  // A 70-rank ring: each rank waits on its successor (with a reason) AND on
  // one of the next two (without one).
  const std::int32_t p = 70;
  WaitForGraph g(p);
  for (trace::ProcId i = 0; i < p; ++i) {
    const std::string next = std::to_string((i + 1) % p);
    auto node = blockedOn(i, {{(i + 1) % p}, {(i + 2) % p, (i + 3) % p}});
    node.description = "Send<&>(to:" + next + ")";
    node.clauses[0].reason = "waits for \"recv\" from " + next;
    g.setNode(std::move(node));
  }
  const auto report = makeReport(g, g.check());
  std::string cycle = "0";
  for (int i = 1; i < p; ++i) cycle += " -> " + std::to_string(i);
  cycle += " -> 0";
  EXPECT_EQ(report.summary,
            "DEADLOCK: 70 process(es) cannot continue, representative cycle " +
                cycle);
  std::string html =
      "<!DOCTYPE html>\n"
      "<html><head><meta charset=\"utf-8\"><title>MUST-style deadlock "
      "report</title></head><body>\n"
      "<h1>DEADLOCK: 70 process(es) cannot continue, representative cycle ";
  for (int i = 0; i < p; ++i) html += std::to_string(i) + " -&gt; ";
  html +=
      "0</h1>\n"
      "<p>Wait-for graph: 210 arcs across 70 processes.</p>\n"
      "<table border=\"1\"><tr><th>Process</th><th>Active call</th>"
      "<th>Wait-for conditions</th></tr>\n";
  for (int i = 0; i < 64; ++i) {
    const std::string next = std::to_string(i + 1);
    html += "<tr><td>" + std::to_string(i) + "</td><td>Send&lt;&amp;&gt;(to:" +
            next + ")</td><td>waits for &quot;recv&quot; from " + next +
            " AND 2 dependencies</td></tr>\n";
  }
  html +=
      "<tr><td colspan=\"3\">... and 6 further processes</td></tr>\n"
      "</table>\n"
      "</body></html>\n";
  EXPECT_EQ(report.html, html);
}

TEST(Report, NoDeadlockSummary) {
  WaitForGraph g(2);
  g.setNode(running(0));
  g.setNode(running(1));
  const auto report = makeReport(g, g.check());
  EXPECT_FALSE(report.deadlock);
  EXPECT_EQ(report.summary, "No deadlock detected.");
  EXPECT_EQ(report.dotBytes, 0u);
}

}  // namespace
}  // namespace wst::wfg
