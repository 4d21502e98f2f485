// Non-blocking operations and completion calls.
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

TEST(NonBlocking, IsendIrecvWaitRoundTrip) {
  World w(2);
  Status st{};
  w.run([&](Proc& self) -> sim::Task {
    RequestId req = kNullRequest;
    if (self.rank() == 0) {
      co_await self.isend(1, /*tag=*/5, /*bytes=*/16, &req);
      co_await self.wait(req);
    } else {
      co_await self.irecv(0, 5, &req);
      co_await self.wait(req, &st);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.bytes, 16u);
}

TEST(NonBlocking, IrecvBreaksHeadToHeadDeadlock) {
  // The classic fix for recv-recv deadlock: post Irecv, then send, then wait.
  World w(2);
  w.run([&](Proc& self) -> sim::Task {
    RequestId req = kNullRequest;
    co_await self.irecv(1 - self.rank(), 0, &req);
    co_await self.send(1 - self.rank());
    co_await self.wait(req);
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
}

TEST(NonBlocking, WaitallCompletesAllRequests) {
  World w(2);
  w.run([&](Proc& self) -> sim::Task {
    std::vector<RequestId> reqs(4, kNullRequest);
    if (self.rank() == 0) {
      for (auto& r : reqs) co_await self.isend(1, 0, 4, &r);
    } else {
      for (auto& r : reqs) co_await self.irecv(0, 0, &r);
    }
    co_await self.waitall(reqs);
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
}

TEST(NonBlocking, WaitanyReturnsACompletedIndex) {
  World w(3);
  int index = -1;
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      std::vector<RequestId> reqs(2, kNullRequest);
      co_await self.irecv(1, 0, &reqs[0]);
      co_await self.irecv(2, 0, &reqs[1]);
      co_await self.waitany(reqs, &index);
      // Clean up the other request.
      std::vector<RequestId> rest = {reqs[index == 0 ? 1 : 0]};
      co_await self.waitall(rest);
    } else if (self.rank() == 2) {
      co_await self.send(0);  // rank 2 sends immediately
    } else {
      co_await self.compute(500'000);
      co_await self.send(0);  // rank 1 sends late
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(index, 1);  // the request on rank 2 completed first
}

TEST(NonBlocking, WaitsomeReturnsAllCompleted) {
  World w(2);
  std::vector<int> indices;
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      std::vector<RequestId> reqs(3, kNullRequest);
      for (auto& r : reqs) co_await self.irecv(1, 0, &r);
      co_await self.compute(1'000'000);  // let all three arrive
      co_await self.waitsome(reqs, &indices);
    } else {
      for (int i = 0; i < 3; ++i) co_await self.send(0);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(indices, (std::vector<int>{0, 1, 2}));
}

TEST(NonBlocking, TestReportsWithoutBlocking) {
  World w(2);
  bool early = true, late = false;
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      RequestId req = kNullRequest;
      co_await self.irecv(1, 0, &req);
      co_await self.test(req, &early);  // nothing has arrived yet
      co_await self.compute(1'000'000);
      co_await self.test(req, &late);
      EXPECT_TRUE(late);
    } else {
      co_await self.compute(100'000);
      co_await self.send(0);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_FALSE(early);
}

TEST(NonBlocking, TestallOnlyRetiresWhenAllDone) {
  World w(2);
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      std::vector<RequestId> reqs(2, kNullRequest);
      co_await self.irecv(1, 0, &reqs[0]);
      co_await self.irecv(1, 1, &reqs[1]);
      bool flag = false;
      co_await self.testall(reqs, &flag);
      EXPECT_FALSE(flag);  // nothing arrived yet
      co_await self.compute(1'000'000);
      co_await self.testall(reqs, &flag);
      EXPECT_TRUE(flag);
    } else {
      co_await self.send(0, 0);
      co_await self.send(0, 1);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
}

TEST(NonBlocking, TestanyPicksFirstCompleted) {
  World w(2);
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      std::vector<RequestId> reqs(2, kNullRequest);
      co_await self.irecv(1, /*tag=*/0, &reqs[0]);
      co_await self.irecv(1, /*tag=*/1, &reqs[1]);
      co_await self.compute(1'000'000);
      bool flag = false;
      int index = -1;
      co_await self.testany(reqs, &flag, &index);
      EXPECT_TRUE(flag);
      EXPECT_EQ(index, 0);
      std::vector<RequestId> rest = {reqs[1]};
      co_await self.waitall(rest);
    } else {
      co_await self.send(0, 0);
      co_await self.send(0, 1);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
}

TEST(NonBlocking, IssendCompletesOnlyWhenMatched) {
  World w(2);
  sim::Time waitDone = 0, recvTime = 0;
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      RequestId req = kNullRequest;
      co_await self.isend(1, 0, 4, &req, kCommWorld, SendMode::kSynchronous);
      co_await self.wait(req);
      waitDone = self.runtime().engine().now();
    } else {
      co_await self.compute(500'000);
      recvTime = self.runtime().engine().now();
      co_await self.recv(0);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_GT(waitDone, recvTime);
}

TEST(NonBlocking, WaitallOnUnmatchedIrecvDeadlocks) {
  World w(2);
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      RequestId req = kNullRequest;
      co_await self.irecv(1, 0, &req);
      co_await self.wait(req);  // rank 1 never sends: blocks forever
    } else {
      RequestId req = kNullRequest;
      co_await self.irecv(0, 0, &req);
      co_await self.wait(req);
    }
    co_await self.finalize();
  });
  EXPECT_FALSE(w.rt.allFinalized());
  EXPECT_EQ(w.rt.unfinishedRanks().size(), 2u);
}

TEST(NonBlocking, WildcardIrecvResolvesSource) {
  World w(3);
  Status st{};
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      RequestId req = kNullRequest;
      co_await self.irecv(kAnySource, kAnyTag, &req);
      co_await self.wait(req, &st);
    } else if (self.rank() == 1) {
      co_await self.send(0);
    } else {
      co_await self.compute(10'000'000);  // well after rank 1
      co_await self.send(0);
      // Drain so the runtime finishes cleanly.
    }
    if (self.rank() == 0) co_await self.recv(kAnySource);
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(st.source, 1);
}

}  // namespace
}  // namespace wst::mpi
