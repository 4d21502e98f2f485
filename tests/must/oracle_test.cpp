// Oracle property test (DESIGN.md §6): the distributed wait state tracker
// must agree with the formal transition system on the same execution.
//
// For randomized programs we run the application twice with identical
// timing: once under a Recorder (centralized matching -> MatchedTrace ->
// formal TransitionSystem), once under the full distributed tool with a
// zero-overhead configuration (no credits, no wrapper cost) so both runs
// observe the *same* execution. The per-process terminal timestamps l_i,
// the blocked sets, and the finished sets must coincide.
#include <gtest/gtest.h>

#include <vector>

#include "must/harness.hpp"
#include "must/recorder.hpp"
#include "support/rng.hpp"
#include "waitstate/transition_system.hpp"

namespace wst::must {
namespace {

using mpi::Proc;

/// A deterministic, coordinated random program plan.
struct Plan {
  std::int32_t procs = 4;
  struct Phase {
    enum Kind {
      kRingBsend,
      kPairIsendIrecv,
      kBarrier,
      kAllreduce,
      kWildcardGather,
      kProbeChain,
      kRecvRecvDeadlock,  // terminal phase: two ranks deadlock
      kMissingBarrier,    // terminal phase: one rank skips the barrier
    } kind = kRingBsend;
    std::vector<mpi::Rank> perm;  // pairing permutation
    mpi::Rank root = 0;
    std::int32_t fanOut = 2;  // senders for wildcard gather
  };
  std::vector<Phase> phases;
  bool endsWithDeadlock = false;
};

Plan makePlan(std::uint64_t seed, std::int32_t procs) {
  support::Rng rng(seed);
  Plan plan;
  plan.procs = procs;
  const int phaseCount = 2 + static_cast<int>(rng.below(5));
  for (int i = 0; i < phaseCount; ++i) {
    Plan::Phase phase;
    switch (rng.below(6)) {
      case 0: phase.kind = Plan::Phase::kRingBsend; break;
      case 1: phase.kind = Plan::Phase::kPairIsendIrecv; break;
      case 2: phase.kind = Plan::Phase::kBarrier; break;
      case 3: phase.kind = Plan::Phase::kAllreduce; break;
      case 4: phase.kind = Plan::Phase::kWildcardGather; break;
      case 5: phase.kind = Plan::Phase::kProbeChain; break;
    }
    phase.root = static_cast<mpi::Rank>(rng.below(procs));
    phase.fanOut =
        1 + static_cast<std::int32_t>(rng.below(std::max(1, procs - 1)));
    // Random pairing permutation: shuffle 0..p-1.
    phase.perm.resize(static_cast<std::size_t>(procs));
    for (mpi::Rank r = 0; r < procs; ++r)
      phase.perm[static_cast<std::size_t>(r)] = r;
    for (std::size_t j = phase.perm.size(); j > 1; --j) {
      std::swap(phase.perm[j - 1], phase.perm[rng.below(j)]);
    }
    plan.phases.push_back(std::move(phase));
  }
  if (rng.chance(0.4)) {
    Plan::Phase fin;
    fin.kind = rng.chance(0.5) ? Plan::Phase::kRecvRecvDeadlock
                               : Plan::Phase::kMissingBarrier;
    fin.root = static_cast<mpi::Rank>(rng.below(procs));
    plan.endsWithDeadlock = true;
    plan.phases.push_back(std::move(fin));
  }
  return plan;
}

mpi::Runtime::Program programFromPlan(const Plan& plan) {
  return [plan](Proc& self) -> sim::Task {
    const mpi::Rank me = self.rank();
    const mpi::Rank n = self.worldSize();
    bool dead = false;
    for (const auto& phase : plan.phases) {
      if (dead) break;
      switch (phase.kind) {
        case Plan::Phase::kRingBsend: {
          co_await self.bsend((me + 1) % n, 0, 4);
          co_await self.recv((me + n - 1) % n, 0);
          break;
        }
        case Plan::Phase::kPairIsendIrecv: {
          // Pair i <-> perm-partner via position parity.
          mpi::Rank partner = -1;
          for (std::size_t pos = 0; pos + 1 < phase.perm.size(); pos += 2) {
            if (phase.perm[pos] == me) partner = phase.perm[pos + 1];
            if (phase.perm[pos + 1] == me) partner = phase.perm[pos];
          }
          if (partner >= 0) {
            mpi::RequestId sreq = mpi::kNullRequest, rreq = mpi::kNullRequest;
            co_await self.isend(partner, 1, 8, &sreq);
            co_await self.irecv(partner, 1, &rreq);
            std::vector<mpi::RequestId> reqs;
            reqs.push_back(sreq);
            reqs.push_back(rreq);
            co_await self.waitall(reqs);
          }
          break;
        }
        case Plan::Phase::kBarrier:
          co_await self.barrier();
          break;
        case Plan::Phase::kAllreduce:
          co_await self.allreduce(8);
          break;
        case Plan::Phase::kWildcardGather: {
          if (me == phase.root) {
            for (std::int32_t k = 0; k < phase.fanOut; ++k) {
              co_await self.recv(mpi::kAnySource, 7);
            }
          } else {
            // The fanOut lowest non-root ranks send.
            mpi::Rank idx = me < phase.root ? me : me - 1;
            if (idx < phase.fanOut) co_await self.send(phase.root, 7, 4);
          }
          break;
        }
        case Plan::Phase::kProbeChain: {
          const mpi::Rank src = (phase.root + 1) % n;
          if (me == src) {
            co_await self.send(phase.root, 3, 16);
          } else if (me == phase.root) {
            mpi::Status st{};
            co_await self.probe(mpi::kAnySource, 3, &st);
            co_await self.recv(st.source, st.tag);
          }
          break;
        }
        case Plan::Phase::kRecvRecvDeadlock: {
          const mpi::Rank a = phase.root;
          const mpi::Rank b = (phase.root + 1) % n;
          if (me == a || me == b) {
            dead = true;
            co_await self.recv(me == a ? b : a, 99);
          }
          break;
        }
        case Plan::Phase::kMissingBarrier: {
          if (me == phase.root) {
            dead = true;
            co_await self.recv(mpi::kAnySource, 98);
          } else {
            co_await self.barrier();
          }
          break;
        }
      }
    }
    if (!dead) co_await self.finalize();
  };
}

struct OracleOutcome {
  std::vector<trace::LocalTs> state;
  std::vector<bool> blocked;
  std::vector<bool> finished;
};

OracleOutcome runFormal(const Plan& plan, const mpi::RuntimeConfig& mpiCfg) {
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpiCfg, plan.procs);
  Recorder recorder(runtime);
  runtime.runToCompletion(programFromPlan(plan));
  const trace::MatchedTrace trace = recorder.finish();
  waitstate::TransitionSystem ts(trace);
  ts.runToTerminal();
  OracleOutcome out;
  out.state = ts.state();
  out.blocked.resize(static_cast<std::size_t>(plan.procs), false);
  out.finished.resize(static_cast<std::size_t>(plan.procs), false);
  for (const auto proc : ts.blockedProcs())
    out.blocked[static_cast<std::size_t>(proc)] = true;
  for (trace::ProcId p = 0; p < plan.procs; ++p)
    out.finished[static_cast<std::size_t>(p)] = ts.finished(p);
  return out;
}

OracleOutcome runDistributed(const Plan& plan,
                             const mpi::RuntimeConfig& mpiCfg,
                             std::int32_t fanIn) {
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpiCfg, plan.procs);
  ToolConfig cfg;
  cfg.fanIn = fanIn;
  // Zero application-visible overhead so both oracle runs observe the same
  // execution (identical wildcard matching decisions).
  cfg.appEventCost = 0;
  cfg.overlay.appToLeaf.credits = 0;
  cfg.detectOnQuiescence = true;
  DistributedTool tool(engine, runtime, cfg);
  runtime.runToCompletion(programFromPlan(plan));

  OracleOutcome out;
  out.state.resize(static_cast<std::size_t>(plan.procs), 0);
  out.blocked.resize(static_cast<std::size_t>(plan.procs), false);
  out.finished.resize(static_cast<std::size_t>(plan.procs), false);
  for (trace::ProcId p = 0; p < plan.procs; ++p) {
    const auto& tracker = tool.tracker(tool.topology().nodeOfProc(p));
    out.state[static_cast<std::size_t>(p)] = tracker.current(p);
    out.blocked[static_cast<std::size_t>(p)] =
        tracker.waitConditions(p).blocked;
    out.finished[static_cast<std::size_t>(p)] = tracker.finishedProc(p);
  }
  return out;
}

class OracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleTest, DistributedTrackerMatchesFormalSystem) {
  const std::uint64_t seed = GetParam();
  support::Rng sizeRng(seed * 7919 + 13);
  const std::int32_t procs = 3 + static_cast<std::int32_t>(sizeRng.below(8));
  const Plan plan = makePlan(seed, procs);
  mpi::RuntimeConfig mpiCfg;
  mpiCfg.ranksPerNode = 4;

  const OracleOutcome formal = runFormal(plan, mpiCfg);
  for (const std::int32_t fanIn : {2, 3}) {
    const OracleOutcome dist = runDistributed(plan, mpiCfg, fanIn);
    EXPECT_EQ(dist.state, formal.state)
        << "seed " << seed << " fanIn " << fanIn << " procs " << procs;
    EXPECT_EQ(dist.blocked, formal.blocked)
        << "seed " << seed << " fanIn " << fanIn;
    EXPECT_EQ(dist.finished, formal.finished)
        << "seed " << seed << " fanIn " << fanIn;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, OracleTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace wst::must
