// Wait-for graph simplification (paper §6 future work).
#include <gtest/gtest.h>

#include "wfg/compress.hpp"

namespace wst::wfg {
namespace {

NodeConditions blockedOn(trace::ProcId proc, std::string description,
                         std::vector<std::vector<trace::ProcId>> clauses) {
  NodeConditions node;
  node.proc = proc;
  node.blocked = true;
  node.description = std::move(description);
  for (auto& targets : clauses) {
    Clause clause;
    clause.targets = std::move(targets);
    node.clauses.push_back(std::move(clause));
  }
  return node;
}

TEST(Compress, WildcardAllToAllCollapsesToOneClass) {
  // The paper's wildcard stress test: p ranks, each OR-waits on all others.
  const std::int32_t p = 64;
  WaitForGraph g(p);
  for (trace::ProcId i = 0; i < p; ++i) {
    std::vector<trace::ProcId> targets;
    for (trace::ProcId j = 0; j < p; ++j) {
      if (j != i) targets.push_back(j);
    }
    g.setNode(blockedOn(i, "Recv(from:ANY, tag:-1)", {targets}));
  }
  const CompressedGraph c = compress(g);
  ASSERT_EQ(c.classes.size(), 1u);
  EXPECT_EQ(c.classes[0].members.size(), static_cast<std::size_t>(p));
  ASSERT_EQ(c.arcs.size(), 1u);
  EXPECT_TRUE(c.arcs[0].allToAll);
  EXPECT_TRUE(c.arcs[0].orSemantics);
  EXPECT_EQ(c.arcs[0].multiplicity,
            static_cast<std::uint64_t>(p) * (p - 1));
  EXPECT_EQ(c.representedArcs, static_cast<std::uint64_t>(p) * (p - 1));
  // The compressed DOT is tiny compared to the p² original.
  EXPECT_EQ(c.toDot(),
            "digraph CompressedWaitForGraph {\n"
            "  rankdir=LR;\n"
            "  c0 [shape=box, label=\"64 ranks (e.g. 0): Recv(from:ANY, "
            "tag:-1)\"];\n"
            "  c0 -> c0 [label=\"all-to-all (OR)\", style=dashed];\n"
            "}\n");
  EXPECT_NE(c.summary().find("Recv"), std::string::npos);
}

TEST(Compress, RingCycleCollapsesToSelfLoopClass) {
  const std::int32_t p = 16;
  WaitForGraph g(p);
  for (trace::ProcId i = 0; i < p; ++i) {
    g.setNode(blockedOn(i, "Send(to:x)", {{(i + 1) % p}}));
  }
  const CompressedGraph c = compress(g);
  ASSERT_EQ(c.classes.size(), 1u);
  ASSERT_EQ(c.arcs.size(), 1u);
  EXPECT_EQ(c.arcs[0].from, c.arcs[0].to);
  EXPECT_EQ(c.arcs[0].multiplicity, static_cast<std::uint64_t>(p));
  EXPECT_FALSE(c.arcs[0].allToAll);  // a cycle, not all-to-all
}

TEST(Compress, DifferentKindsStayInDifferentClasses) {
  WaitForGraph g(4);
  g.setNode(blockedOn(0, "Send(to:1)", {{1}}));
  g.setNode(blockedOn(1, "Recv(from:0)", {{0}}));
  g.setNode(blockedOn(2, "Send(to:3)", {{3}}));
  g.setNode(blockedOn(3, "Recv(from:2)", {{2}}));
  const CompressedGraph c = compress(g);
  EXPECT_EQ(c.classes.size(), 2u);  // "Send" class {0,2}, "Recv" class {1,3}
  EXPECT_EQ(c.representedArcs, 4u);
}

TEST(Compress, RefinementSplitsByTargetClass) {
  // Same kind, but 0/1 wait on Recv-class targets while 2 waits on a
  // Send-class target: refinement must split the Send class.
  WaitForGraph g(5);
  g.setNode(blockedOn(0, "Send(to:3)", {{3}}));
  g.setNode(blockedOn(1, "Send(to:4)", {{4}}));
  g.setNode(blockedOn(2, "Send(to:0)", {{0}}));  // waits on a *Send* class
  g.setNode(blockedOn(3, "Recv(from:0)", {{0}}));
  g.setNode(blockedOn(4, "Recv(from:1)", {{1}}));
  const CompressedGraph c = compress(g);
  // Classes: {0,1} (Send->Recv), {2} (Send->Send), {3,4} (Recv->Send).
  EXPECT_EQ(c.classes.size(), 3u);
  EXPECT_EQ(c.toDot(),
            "digraph CompressedWaitForGraph {\n"
            "  rankdir=LR;\n"
            "  c0 [shape=box, label=\"2 ranks (e.g. 0): Send(to:3)\"];\n"
            "  c1 [shape=box, label=\"rank 2: Send(to:0)\"];\n"
            "  c2 [shape=box, label=\"2 ranks (e.g. 3): Recv(from:0)\"];\n"
            "  c0 -> c2 [label=\"2 arcs\"];\n"
            "  c1 -> c0 [label=\"1 arcs\"];\n"
            "  c2 -> c0 [label=\"2 arcs\"];\n"
            "}\n");
}

TEST(Compress, RestrictToSubset) {
  WaitForGraph g(4);
  g.setNode(blockedOn(0, "Recv(from:1)", {{1}}));
  g.setNode(blockedOn(1, "Recv(from:0)", {{0}}));
  g.setNode(blockedOn(2, "Recv(from:3)", {{3}}));
  NodeConditions running;
  running.proc = 3;
  g.setNode(std::move(running));
  const CompressedGraph c = compress(g, {0, 1});
  std::size_t members = 0;
  for (const auto& cls : c.classes) members += cls.members.size();
  EXPECT_EQ(members, 2u);
  EXPECT_EQ(c.representedArcs, 2u);
}

TEST(Compress, EmptyGraphCompressesToNothing) {
  WaitForGraph g(3);
  const CompressedGraph c = compress(g);
  EXPECT_TRUE(c.classes.empty());
  EXPECT_TRUE(c.arcs.empty());
}

}  // namespace
}  // namespace wst::wfg
