// Point-to-point semantics of the simulated MPI runtime.
#include <gtest/gtest.h>

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

TEST(PointToPoint, SimpleSendRecvCompletes) {
  World w(2);
  Status st{};
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      co_await self.send(1, /*tag=*/7, /*bytes=*/4);
    } else {
      co_await self.recv(0, 7, &st);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 7);
  EXPECT_EQ(st.bytes, 4u);
}

TEST(PointToPoint, MessagesNonOvertakingPerChannel) {
  World w(2);
  std::vector<Tag> seen;
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      for (Tag t = 0; t < 5; ++t) co_await self.send(1, /*tag=*/9);
    } else {
      Status st{};
      for (int i = 0; i < 5; ++i) {
        co_await self.recv(0, kAnyTag, &st);
        seen.push_back(st.tag);
      }
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(seen.size(), 5u);
}

TEST(PointToPoint, TagSelectsMessage) {
  World w(2);
  std::vector<Tag> order;
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      co_await self.send(1, /*tag=*/1);
      co_await self.send(1, /*tag=*/2);
    } else {
      Status st{};
      // Receive tag 2 first even though tag 1 arrived earlier.
      co_await self.recv(0, 2, &st);
      order.push_back(st.tag);
      co_await self.recv(0, 1, &st);
      order.push_back(st.tag);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(order, (std::vector<Tag>{2, 1}));
}

TEST(PointToPoint, WildcardReceivesEarliestArrival) {
  RuntimeConfig cfg;
  cfg.ranksPerNode = 1;  // make rank 1 farther than rank 2 impossible: equal
  World w(3, cfg);
  std::vector<Rank> sources;
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      Status st{};
      co_await self.recv(kAnySource, kAnyTag, &st);
      sources.push_back(st.source);
      co_await self.recv(kAnySource, kAnyTag, &st);
      sources.push_back(st.source);
    } else if (self.rank() == 1) {
      co_await self.compute(1000);  // rank 2's send departs first
      co_await self.send(0);
    } else {
      co_await self.send(0);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(sources, (std::vector<Rank>{2, 1}));
}

TEST(PointToPoint, RecvRecvDeadlockNeverFinalizes) {
  // Paper Figure 2(a): P0 Recv(1); P1 Recv(0) — classic head-to-head.
  World w(2);
  w.run([&](Proc& self) -> sim::Task {
    Status st{};
    co_await self.recv(1 - self.rank(), kAnyTag, &st);
    co_await self.send(1 - self.rank());
    co_await self.finalize();
  });
  EXPECT_FALSE(w.rt.allFinalized());
  EXPECT_EQ(w.rt.unfinishedRanks().size(), 2u);
}

TEST(PointToPoint, SsendBlocksUntilMatched) {
  World w(2);
  sim::Time sendDone = 0, recvPosted = 0;
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      co_await self.ssend(1);
      sendDone = self.runtime().engine().now();
    } else {
      co_await self.compute(50'000);
      recvPosted = self.runtime().engine().now();
      co_await self.recv(0);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_GT(sendDone, recvPosted);  // sender waited for the late receiver
}

TEST(PointToPoint, BufferedStandardSendCompletesEarly) {
  World w(2);  // default config buffers standard sends
  sim::Time sendDone = 0, recvPosted = 0;
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      co_await self.send(1);
      sendDone = self.runtime().engine().now();
    } else {
      co_await self.compute(50'000);
      recvPosted = self.runtime().engine().now();
      co_await self.recv(0);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_LT(sendDone, recvPosted);  // eager completion
}

TEST(PointToPoint, UnbufferedStandardSendIsRendezvous) {
  RuntimeConfig cfg;
  cfg.bufferStandardSends = false;
  World w(2, cfg);
  // Paper Figure 2(b) tail: send-send deadlock manifests without buffering.
  w.run([&](Proc& self) -> sim::Task {
    co_await self.send(1 - self.rank());
    co_await self.recv(1 - self.rank());
    co_await self.finalize();
  });
  EXPECT_FALSE(w.rt.allFinalized());
}

TEST(PointToPoint, LargeStandardSendRendezvousDespiteBuffering) {
  RuntimeConfig cfg;
  cfg.eagerThreshold = 1024;
  World w(2, cfg);
  w.run([&](Proc& self) -> sim::Task {
    co_await self.send(1 - self.rank(), 0, /*bytes=*/4096);
    co_await self.recv(1 - self.rank());
    co_await self.finalize();
  });
  EXPECT_FALSE(w.rt.allFinalized());  // above threshold: send-send deadlock
}

TEST(PointToPoint, BsendNeverBlocks) {
  RuntimeConfig cfg;
  cfg.bufferStandardSends = false;  // even when standard sends are strict
  World w(2, cfg);
  w.run([&](Proc& self) -> sim::Task {
    co_await self.bsend(1 - self.rank());
    co_await self.recv(1 - self.rank());
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
}

TEST(PointToPoint, ProbeSeesMessageWithoutConsuming) {
  World w(2);
  Status probeSt{}, recvSt{};
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      co_await self.send(1, /*tag=*/3);
    } else {
      co_await self.probe(kAnySource, kAnyTag, &probeSt);
      co_await self.recv(probeSt.source, probeSt.tag, &recvSt);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(probeSt.source, 0);
  EXPECT_EQ(probeSt.tag, 3);
  EXPECT_EQ(recvSt.source, 0);
}

TEST(PointToPoint, IprobeReportsPresence) {
  World w(2);
  bool before = true, after = false;
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      co_await self.iprobe(1, kAnyTag, &before);
      co_await self.recv(1);  // wait until the message arrived
      // Iprobe cannot see a consumed message; send another.
      co_await self.iprobe(1, kAnyTag, &after);
      EXPECT_FALSE(after);
    } else {
      co_await self.send(0);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_FALSE(before);  // nothing had arrived at time ~0
}

TEST(PointToPoint, SendrecvExchanges) {
  World w(2);
  std::vector<Rank> sources(2, -1);
  w.run([&](Proc& self) -> sim::Task {
    Status st{};
    const Rank other = 1 - self.rank();
    co_await self.sendrecv(other, 0, 8, other, 0, &st);
    sources[static_cast<std::size_t>(self.rank())] = st.source;
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(sources, (std::vector<Rank>{1, 0}));
}

TEST(PointToPoint, SendrecvRingDoesNotDeadlock) {
  RuntimeConfig cfg;
  cfg.bufferStandardSends = false;  // Sendrecv must still work
  World w(4, cfg);
  w.run([&](Proc& self) -> sim::Task {
    const Rank p = self.rank();
    const Rank n = self.worldSize();
    co_await self.sendrecv((p + 1) % n, 0, 4, (p + n - 1) % n, 0);
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
}

TEST(Runtime, CountsCalls) {
  World w(2);
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) co_await self.send(1);
    if (self.rank() == 1) co_await self.recv(0);
    co_await self.finalize();
  });
  EXPECT_EQ(w.rt.totalCalls(), 4u);  // send + recv + 2 finalize
}

TEST(Runtime, LatencyDependsOnPlacement) {
  RuntimeConfig cfg;
  cfg.ranksPerNode = 2;
  cfg.intraNodeLatency = 100;
  cfg.interNodeLatency = 10'000;
  EXPECT_EQ(cfg.latency(0, 1), 100u);
  EXPECT_EQ(cfg.latency(1, 2), 10'000u);
  EXPECT_EQ(cfg.latency(2, 3), 100u);
}

}  // namespace
}  // namespace wst::mpi
