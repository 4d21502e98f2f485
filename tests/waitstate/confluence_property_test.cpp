// Confluence of the wait-state transition system (paper §3.1): the terminal
// state is unique, so ANY maximal sequence of rule applications must land on
// the same state, blocked set, and finished set. The fuzz generator supplies
// structurally diverse programs (wildcards, probes, collectives, communicator
// splits, nonblocking storms, deadlock seeds); each is replayed through 20
// randomized rule orders and compared against the worklist order.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fuzz/generator.hpp"
#include "fuzz/interpreter.hpp"
#include "fuzz/scenario.hpp"
#include "mpi/runtime.hpp"
#include "must/recorder.hpp"
#include "sim/parallel_engine.hpp"
#include "support/rng.hpp"
#include "waitstate/transition_system.hpp"

namespace wst::waitstate {
namespace {

trace::MatchedTrace traceOf(const fuzz::Scenario& scenario) {
  const auto sc = std::make_shared<const fuzz::Scenario>(scenario);
  sim::ParallelEngine engine;
  mpi::RuntimeConfig cfg;
  cfg.ranksPerNode = 2;
  mpi::Runtime runtime(engine, cfg, scenario.procs);
  must::Recorder recorder(runtime);
  runtime.runToCompletion(fuzz::scenarioProgram(sc));
  return recorder.finish();
}

struct Terminal {
  State state;
  std::vector<trace::ProcId> blocked;
  std::vector<bool> finished;

  bool operator==(const Terminal&) const = default;
};

Terminal terminalOf(const TransitionSystem& ts, trace::ProcId procs) {
  Terminal t;
  t.state = ts.state();
  t.blocked = ts.blockedProcs();
  for (trace::ProcId p = 0; p < procs; ++p) {
    t.finished.push_back(ts.finished(p));
  }
  return t;
}

TEST(ConfluenceProperty, RandomOrdersReachTheSameTerminalState) {
  constexpr int kScenarios = 15;
  constexpr int kOrders = 20;
  for (int i = 0; i < kScenarios; ++i) {
    const fuzz::Scenario scenario =
        fuzz::makeScenario(0xC0FFEE00ULL + static_cast<std::uint64_t>(i));
    const trace::MatchedTrace trace = traceOf(scenario);

    TransitionSystem reference(trace);
    reference.runToTerminal();
    ASSERT_TRUE(reference.terminal());
    const Terminal expected = terminalOf(reference, scenario.procs);

    for (int order = 0; order < kOrders; ++order) {
      TransitionSystem ts(trace);
      support::Rng rng(0xFEED0000ULL + static_cast<std::uint64_t>(order));
      ts.runToTerminalRandomized(rng);
      ASSERT_TRUE(ts.terminal());
      EXPECT_EQ(terminalOf(ts, scenario.procs), expected)
          << "scenario " << i << " diverged under random order " << order;
    }
  }
}

TEST(ConfluenceProperty, TransitionCountIsOrderInvariant) {
  // Every maximal run applies the same multiset of transitions (one rule
  // per consumed trace record), so the count is order-independent too.
  const fuzz::Scenario scenario = fuzz::makeScenario(0xC0FFEE42ULL);
  const trace::MatchedTrace trace = traceOf(scenario);
  TransitionSystem reference(trace);
  const std::uint64_t expected = reference.runToTerminal();
  for (int order = 0; order < 5; ++order) {
    TransitionSystem ts(trace);
    support::Rng rng(static_cast<std::uint64_t>(order) + 1);
    EXPECT_EQ(ts.runToTerminalRandomized(rng), expected);
  }
}

}  // namespace
}  // namespace wst::waitstate
