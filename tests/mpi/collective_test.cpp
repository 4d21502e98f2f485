// Collective semantics of the simulated MPI runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mpi/proc.hpp"
#include "mpi/runtime.hpp"
#include "sim/parallel_engine.hpp"

namespace wst::mpi {
namespace {

struct World {
  sim::ParallelEngine engine;
  Runtime rt;
  explicit World(std::int32_t procs, RuntimeConfig cfg = {})
      : rt(engine, cfg, procs) {}
  void run(const Runtime::Program& program) {
    rt.start(program);
    engine.run();
  }
};

TEST(Collective, BarrierSynchronizesAllRanks) {
  World w(4);
  std::vector<sim::Time> exitTimes(4, 0);
  w.run([&](Proc& self) -> sim::Task {
    // Stagger arrivals; everyone must leave after the last arrival.
    co_await self.compute(static_cast<sim::Duration>(self.rank()) * 10'000);
    co_await self.barrier();
    exitTimes[static_cast<std::size_t>(self.rank())] =
        self.runtime().engine().now();
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  const sim::Time lastArrival = 30'000;
  for (auto t : exitTimes) EXPECT_GE(t, lastArrival);
}

TEST(Collective, MissingRankHangsBarrier) {
  World w(3);
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() != 2) co_await self.barrier();
    if (self.rank() == 2) {
      co_await self.recv(kAnySource);  // blocks forever instead
    }
    co_await self.finalize();
  });
  EXPECT_FALSE(w.rt.allFinalized());
  EXPECT_EQ(w.rt.unfinishedRanks().size(), 3u);
}

TEST(Collective, SuccessiveWavesMatchInOrder) {
  World w(2);
  int waves = 0;
  w.run([&](Proc& self) -> sim::Task {
    for (int i = 0; i < 5; ++i) {
      co_await self.barrier();
      if (self.rank() == 0) ++waves;
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(waves, 5);
}

TEST(Collective, KindMismatchIsRecorded) {
  World w(2);
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      co_await self.barrier();
    } else {
      co_await self.allreduce();
    }
    co_await self.finalize();
  });
  ASSERT_EQ(w.rt.usageErrors().size(), 1u);
  EXPECT_NE(w.rt.usageErrors()[0].find("mismatch"), std::string::npos);
}

TEST(Collective, SynchronizingReduceHoldsNonRoots) {
  RuntimeConfig cfg;  // default: synchronizing
  World w(3, cfg);
  std::vector<sim::Time> exitTimes(3, 0);
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 2) co_await self.compute(100'000);
    co_await self.reduce(/*root=*/0);
    exitTimes[static_cast<std::size_t>(self.rank())] =
        self.runtime().engine().now();
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_GE(exitTimes[1], 100'000u);  // non-root held until rank 2 arrived
}

TEST(Collective, RootedReduceReleasesNonRootsEarly) {
  RuntimeConfig cfg;
  cfg.collectiveSync = CollectiveSync::kRooted;
  World w(3, cfg);
  std::vector<sim::Time> exitTimes(3, 0);
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 2) co_await self.compute(100'000);
    co_await self.reduce(/*root=*/0);
    exitTimes[static_cast<std::size_t>(self.rank())] =
        self.runtime().engine().now();
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_LT(exitTimes[1], 100'000u);  // rank 1 left before rank 2 arrived
  EXPECT_GE(exitTimes[0], 100'000u);  // root waited for all contributions
}

TEST(Collective, RootedBcastHoldsNonRootsForRoot) {
  RuntimeConfig cfg;
  cfg.collectiveSync = CollectiveSync::kRooted;
  World w(3, cfg);
  std::vector<sim::Time> exitTimes(3, 0);
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) co_await self.compute(100'000);  // root is late
    co_await self.bcast(/*root=*/0);
    exitTimes[static_cast<std::size_t>(self.rank())] =
        self.runtime().engine().now();
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_GE(exitTimes[1], 100'000u);  // data cannot arrive before root sends
  EXPECT_GE(exitTimes[2], 100'000u);
}

TEST(Collective, RootedBcastDoesNotWaitForLateNonRoots) {
  RuntimeConfig cfg;
  cfg.collectiveSync = CollectiveSync::kRooted;
  World w(3, cfg);
  std::vector<sim::Time> exitTimes(3, 0);
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 2) co_await self.compute(100'000);  // straggler
    co_await self.bcast(/*root=*/0);
    exitTimes[static_cast<std::size_t>(self.rank())] =
        self.runtime().engine().now();
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_LT(exitTimes[0], 100'000u);
  EXPECT_LT(exitTimes[1], 100'000u);
}

TEST(Collective, CommDupCreatesUsableCommunicator) {
  World w(3);
  std::vector<CommId> dups(3, -1);
  w.run([&](Proc& self) -> sim::Task {
    CommId dup = -1;
    co_await self.commDup(kCommWorld, &dup);
    dups[static_cast<std::size_t>(self.rank())] = dup;
    // Communicate over the dup.
    if (self.rank() == 0) co_await self.send(1, 0, 4, dup);
    if (self.rank() == 1) co_await self.recv(0, kAnyTag, nullptr, dup);
    co_await self.barrier(dup);
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(dups[0], dups[1]);
  EXPECT_EQ(dups[0], dups[2]);
  EXPECT_NE(dups[0], kCommWorld);
}

TEST(Collective, CommSplitGroupsByColor) {
  World w(4);
  std::vector<CommId> comms(4, -1);
  w.run([&](Proc& self) -> sim::Task {
    CommId sub = -1;
    co_await self.commSplit(kCommWorld, /*color=*/self.rank() % 2,
                            /*key=*/self.rank(), &sub);
    comms[static_cast<std::size_t>(self.rank())] = sub;
    // Barrier within the split communicator: only same-color ranks join.
    co_await self.barrier(sub);
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(comms[0], comms[2]);
  EXPECT_EQ(comms[1], comms[3]);
  EXPECT_NE(comms[0], comms[1]);
  EXPECT_EQ(w.rt.comm(comms[0]).group(), (std::vector<Rank>{0, 2}));
  EXPECT_EQ(w.rt.comm(comms[1]).group(), (std::vector<Rank>{1, 3}));
}

TEST(Collective, SplitCommLocalRanksTranslate) {
  World w(4);
  Status st{};
  w.run([&](Proc& self) -> sim::Task {
    CommId sub = -1;
    co_await self.commSplit(kCommWorld, self.rank() % 2, self.rank(), &sub);
    // In the even communicator {0,2}: local 0 = world 0, local 1 = world 2.
    if (self.rank() == 0) co_await self.send(/*local*/ 1, 0, 4, sub);
    if (self.rank() == 2) co_await self.recv(/*local*/ 0, kAnyTag, &st, sub);
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(st.source, 0);  // world rank of the sender
}

TEST(Collective, CostGrowsWithGroupSize) {
  RuntimeConfig cfg;
  auto timeBarrier = [&](std::int32_t p) {
    World w(p, cfg);
    w.run([&](Proc& self) -> sim::Task {
      co_await self.barrier();
      co_await self.finalize();
    });
    EXPECT_TRUE(w.rt.allFinalized());
    return w.rt.lastFinalizeTime();
  };
  EXPECT_LT(timeBarrier(2), timeBarrier(64));
}

TEST(Collective, AllCollectiveKindsComplete) {
  World w(4);
  w.run([&](Proc& self) -> sim::Task {
    co_await self.barrier();
    co_await self.bcast(0, 64);
    co_await self.reduce(1, 64);
    co_await self.allreduce(8);
    co_await self.gather(2, 16);
    co_await self.allgather(16);
    co_await self.scatter(3, 16);
    co_await self.alltoall(32);
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_TRUE(w.rt.usageErrors().empty());
}

}  // namespace
}  // namespace wst::mpi
