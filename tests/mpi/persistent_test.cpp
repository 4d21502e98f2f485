// Persistent communication requests (MPI_Send_init / MPI_Recv_init /
// MPI_Start / MPI_Startall) — paper §3.1 handles them like non-blocking
// point-to-point operations; each Start is traced as a fresh Isend/Irecv.
#include <gtest/gtest.h>

#include "mpi/proc.hpp"
#include "mpi/runtime.hpp"
#include "must/harness.hpp"
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

TEST(Persistent, StartWaitRoundTrip) {
  World w(2);
  Status st{};
  w.run([&](Proc& self) -> sim::Task {
    RequestId req = kNullRequest;
    if (self.rank() == 0) {
      co_await self.sendInit(1, /*tag=*/4, /*bytes=*/16, &req);
      co_await self.start(req);
      co_await self.wait(req);
    } else {
      co_await self.recvInit(0, 4, &req);
      co_await self.start(req);
      co_await self.wait(req, &st);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.bytes, 16u);
}

TEST(Persistent, RequestsAreReusableAcrossIterations) {
  World w(2);
  int received = 0;
  w.run([&](Proc& self) -> sim::Task {
    RequestId req = kNullRequest;
    if (self.rank() == 0) {
      co_await self.sendInit(1, 0, 8, &req);
    } else {
      co_await self.recvInit(0, 0, &req);
    }
    for (int i = 0; i < 5; ++i) {
      co_await self.start(req);
      co_await self.wait(req);
      if (self.rank() == 1) ++received;
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
  EXPECT_EQ(received, 5);
}

TEST(Persistent, StartAllAndWaitall) {
  World w(3);
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      std::vector<RequestId> reqs(2, kNullRequest);
      co_await self.recvInit(1, 0, &reqs[0]);
      co_await self.recvInit(2, 0, &reqs[1]);
      for (int i = 0; i < 3; ++i) {
        co_await self.startAll(reqs);
        co_await self.waitall(reqs);
      }
    } else {
      RequestId req = kNullRequest;
      co_await self.sendInit(0, 0, 4, &req);
      for (int i = 0; i < 3; ++i) {
        co_await self.start(req);
        co_await self.wait(req);
      }
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
}

TEST(Persistent, TestObservesCompletionAndAllowsRestart) {
  World w(2);
  w.run([&](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      RequestId req = kNullRequest;
      co_await self.recvInit(1, 0, &req);
      co_await self.start(req);
      bool done = false;
      while (!done) {
        co_await self.compute(10 * sim::kMicrosecond);
        co_await self.test(req, &done);
      }
      co_await self.start(req);  // restart after Test consumed it
      co_await self.wait(req);
    } else {
      co_await self.send(0);
      co_await self.send(0);
    }
    co_await self.finalize();
  });
  EXPECT_TRUE(w.rt.allFinalized());
}

TEST(Persistent, ToolSeesStartsAsNonBlockingOps) {
  // Under the tool, a persistent ping-pong analyzes cleanly: every Start is
  // a fresh Isend/Irecv for rule (4); the Init calls advance under rule (1).
  const auto result = must::runWithTool(
      2, RuntimeConfig{}, must::ToolConfig{.fanIn = 2},
      [](Proc& self) -> sim::Task {
        RequestId sendReq = kNullRequest, recvReq = kNullRequest;
        const Rank other = 1 - self.rank();
        co_await self.sendInit(other, 1, 8, &sendReq);
        co_await self.recvInit(other, 1, &recvReq);
        for (int i = 0; i < 4; ++i) {
          co_await self.start(recvReq);
          co_await self.start(sendReq);
          std::vector<RequestId> reqs{sendReq, recvReq};
          co_await self.waitall(reqs);
        }
        co_await self.finalize();
      });
  EXPECT_TRUE(result.allFinalized);
  EXPECT_FALSE(result.deadlockReported);
}

TEST(Persistent, DeadlockThroughPersistentRecvDetected) {
  const auto result = must::runWithTool(
      2, RuntimeConfig{}, must::ToolConfig{.fanIn = 2},
      [](Proc& self) -> sim::Task {
        RequestId req = kNullRequest;
        co_await self.recvInit(1 - self.rank(), 0, &req);
        co_await self.start(req);
        co_await self.wait(req);  // nobody ever sends
        co_await self.finalize();
      });
  EXPECT_FALSE(result.allFinalized);
  ASSERT_TRUE(result.deadlockReported);
  EXPECT_EQ(result.report->check.deadlocked.size(), 2u);
}

}  // namespace
}  // namespace wst::mpi
