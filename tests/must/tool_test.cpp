// End-to-end tests: simulated MPI application + TBON + distributed wait
// state tracking + consistent-state protocol + WFG check at the root.
#include <gtest/gtest.h>

#include "bench/common.hpp"
#include "must/harness.hpp"
#include "support/strings.hpp"
#include "support/tracing.hpp"
#include "workloads/stress.hpp"

namespace wst::must {
namespace {

using mpi::Proc;
using mpi::Runtime;

mpi::RuntimeConfig smallWorld() {
  mpi::RuntimeConfig cfg;
  cfg.ranksPerNode = 4;
  return cfg;
}

TEST(Tool, CleanRunReportsNoDeadlock) {
  const auto result = runWithTool(
      4, smallWorld(), ToolConfig{.fanIn = 2},
      [](Proc& self) -> sim::Task {
        const mpi::Rank n = self.worldSize();
        const mpi::Rank right = (self.rank() + 1) % n;
        const mpi::Rank left = (self.rank() + n - 1) % n;
        for (int i = 0; i < 5; ++i) {
          co_await self.sendrecv(right, 0, 4, left, 0);
        }
        co_await self.barrier();
        co_await self.finalize();
      });
  EXPECT_TRUE(result.allFinalized);
  EXPECT_FALSE(result.deadlockReported);
}

TEST(Tool, UnsafeSendRingFlaggedByConservativeModel) {
  // Everyone sends right before receiving from the left: legal only if the
  // MPI buffers standard sends. The app completes (our runtime buffers) but
  // the conservative analysis reports the potential deadlock — the same
  // mechanism that flags 126.lammps in the paper (§6).
  const auto result = runWithTool(
      4, smallWorld(), ToolConfig{.fanIn = 2},
      [](Proc& self) -> sim::Task {
        const mpi::Rank n = self.worldSize();
        co_await self.send((self.rank() + 1) % n, 0, 4);
        co_await self.recv((self.rank() + n - 1) % n, 0);
        co_await self.finalize();
      });
  EXPECT_TRUE(result.allFinalized);
  ASSERT_TRUE(result.deadlockReported);
  EXPECT_EQ(result.report->check.deadlocked.size(), 4u);

  // The implementation-faithful blocking model accepts the same program.
  ToolConfig faithful{.fanIn = 2};
  faithful.blockingModel = trace::BlockingModel::kImplementationFaithful;
  const auto relaxed = runWithTool(
      4, smallWorld(), faithful, [](Proc& self) -> sim::Task {
        const mpi::Rank n = self.worldSize();
        co_await self.send((self.rank() + 1) % n, 0, 4);
        co_await self.recv((self.rank() + n - 1) % n, 0);
        co_await self.finalize();
      });
  EXPECT_TRUE(relaxed.allFinalized);
  EXPECT_FALSE(relaxed.deadlockReported);
}

TEST(Tool, Figure2aRecvRecvDeadlockDetected) {
  const auto result = runWithTool(
      2, smallWorld(), ToolConfig{.fanIn = 2},
      [](Proc& self) -> sim::Task {
        co_await self.recv(1 - self.rank(), mpi::kAnyTag);
        co_await self.send(1 - self.rank());
        co_await self.finalize();
      });
  EXPECT_FALSE(result.allFinalized);
  ASSERT_TRUE(result.deadlockReported);
  EXPECT_EQ(result.report->check.deadlocked,
            (std::vector<trace::ProcId>{0, 1}));
  EXPECT_EQ(result.report->check.cycle.size(), 2u);
}

TEST(Tool, Figure2bWildcardSendSendDeadlockDetected) {
  // Paper Figure 2(b): wildcard receives + barrier complete; the final
  // send-send pattern deadlocks under the conservative blocking model even
  // though the (buffering) MPI implementation lets the app terminate.
  mpi::RuntimeConfig mpiCfg = smallWorld();
  mpi::Runtime::Program program = [](Proc& self) -> sim::Task {
    if (self.rank() == 0) {
      co_await self.send(1);
      co_await self.barrier();
      co_await self.send(1);
      co_await self.recv(2);
    } else if (self.rank() == 1) {
      co_await self.recv(mpi::kAnySource);
      co_await self.recv(mpi::kAnySource);
      co_await self.barrier();
      co_await self.send(2);
      co_await self.recv(0);
    } else {
      co_await self.send(1);
      co_await self.barrier();
      co_await self.send(0);
      co_await self.recv(1);
    }
    co_await self.finalize();
  };
  const auto result = runWithTool(3, mpiCfg, ToolConfig{.fanIn = 2}, program);
  // The app itself terminates (buffered standard sends)...
  EXPECT_TRUE(result.allFinalized);
  // ...but the conservative analysis flags the send-send deadlock.
  ASSERT_TRUE(result.deadlockReported);
  EXPECT_EQ(result.report->check.deadlocked.size(), 3u);
}

TEST(Tool, Figure2bManifestsWithoutBuffering) {
  mpi::RuntimeConfig mpiCfg = smallWorld();
  mpiCfg.bufferStandardSends = false;
  const auto result = runWithTool(
      3, mpiCfg, ToolConfig{.fanIn = 2}, [](Proc& self) -> sim::Task {
        if (self.rank() == 0) {
          co_await self.send(1);
          co_await self.barrier();
          co_await self.send(1);
          co_await self.recv(2);
        } else if (self.rank() == 1) {
          co_await self.recv(mpi::kAnySource);
          co_await self.recv(mpi::kAnySource);
          co_await self.barrier();
          co_await self.send(2);
          co_await self.recv(0);
        } else {
          co_await self.send(1);
          co_await self.barrier();
          co_await self.send(0);
          co_await self.recv(1);
        }
        co_await self.finalize();
      });
  EXPECT_FALSE(result.allFinalized);  // manifest deadlock
  ASSERT_TRUE(result.deadlockReported);
  EXPECT_EQ(result.report->check.deadlocked.size(), 3u);
}

TEST(Tool, WildcardStressProducesQuadraticGraph) {
  // Paper Figure 10 workload: every rank posts Recv(ANY), nobody sends.
  const std::int32_t p = 12;
  const auto result = runWithTool(
      p, smallWorld(), ToolConfig{.fanIn = 4}, [](Proc& self) -> sim::Task {
        co_await self.recv(mpi::kAnySource, mpi::kAnyTag);
        co_await self.finalize();
      });
  EXPECT_FALSE(result.allFinalized);
  ASSERT_TRUE(result.deadlockReported);
  EXPECT_EQ(result.report->check.deadlocked.size(),
            static_cast<std::size_t>(p));
  EXPECT_EQ(result.report->check.arcCount,
            static_cast<std::uint64_t>(p) * (p - 1));
  EXPECT_GT(result.report->dotBytes, 0u);
  // Breakdown populated: synchronization and gather took virtual time.
  EXPECT_GT(result.report->times.synchronizationNs, 0u);
  EXPECT_GT(result.report->times.wfgGatherNs, 0u);
}

TEST(Tool, BarrierMissingRankDeadlockDetected) {
  const auto result = runWithTool(
      4, smallWorld(), ToolConfig{.fanIn = 2}, [](Proc& self) -> sim::Task {
        if (self.rank() == 3) {
          co_await self.recv(mpi::kAnySource);  // never enters the barrier
        } else {
          co_await self.barrier();
        }
        co_await self.finalize();
      });
  EXPECT_FALSE(result.allFinalized);
  ASSERT_TRUE(result.deadlockReported);
  EXPECT_EQ(result.report->check.deadlocked.size(), 4u);
}

TEST(Tool, CentralizedConfigurationDetectsToo) {
  const auto result = runWithTool(
      4, smallWorld(), DistributedTool::centralizedConfig(4),
      [](Proc& self) -> sim::Task {
        co_await self.recv((self.rank() + 1) % self.worldSize());
        co_await self.finalize();
      });
  EXPECT_FALSE(result.allFinalized);
  ASSERT_TRUE(result.deadlockReported);
  EXPECT_EQ(result.report->check.deadlocked.size(), 4u);
  EXPECT_FALSE(result.report->check.cycle.empty());
}

TEST(Tool, NonblockingWaitallDeadlockDetected) {
  const auto result = runWithTool(
      2, smallWorld(), ToolConfig{.fanIn = 2}, [](Proc& self) -> sim::Task {
        mpi::RequestId req = mpi::kNullRequest;
        co_await self.irecv(1 - self.rank(), 0, &req);
        co_await self.wait(req);  // nobody sends
        co_await self.finalize();
      });
  EXPECT_FALSE(result.allFinalized);
  ASSERT_TRUE(result.deadlockReported);
}

TEST(Tool, SubCommunicatorDeadlockDetected) {
  const auto result = runWithTool(
      4, smallWorld(), ToolConfig{.fanIn = 2}, [](Proc& self) -> sim::Task {
        mpi::CommId sub = -1;
        co_await self.commSplit(mpi::kCommWorld, self.rank() % 2,
                                self.rank(), &sub);
        if (self.rank() % 2 == 0) {
          co_await self.barrier(sub);  // even group: fine
          co_await self.finalize();
        } else {
          if (self.rank() == 1) {
            co_await self.barrier(sub);  // odd group: rank 3 never joins
          } else {
            co_await self.recv(mpi::kAnySource, mpi::kAnyTag, nullptr, sub);
          }
          co_await self.finalize();
        }
      });
  EXPECT_FALSE(result.allFinalized);
  ASSERT_TRUE(result.deadlockReported);
  EXPECT_EQ(result.report->check.deadlocked.size(), 2u);  // ranks 1 and 3
}

TEST(Tool, SendrecvRingRunsCleanly) {
  mpi::RuntimeConfig cfg = smallWorld();
  cfg.bufferStandardSends = false;
  const auto result = runWithTool(
      6, cfg, ToolConfig{.fanIn = 2}, [](Proc& self) -> sim::Task {
        const mpi::Rank n = self.worldSize();
        for (int i = 0; i < 3; ++i) {
          co_await self.sendrecv((self.rank() + 1) % n, 0, 8,
                                 (self.rank() + n - 1) % n, 0);
        }
        co_await self.finalize();
      });
  EXPECT_TRUE(result.allFinalized);
  EXPECT_FALSE(result.deadlockReported);
}

TEST(Tool, ProbeBasedConsumerRunsCleanly) {
  const auto result = runWithTool(
      2, smallWorld(), ToolConfig{.fanIn = 2}, [](Proc& self) -> sim::Task {
        if (self.rank() == 0) {
          for (int i = 0; i < 3; ++i) co_await self.send(1, i, 16);
        } else {
          mpi::Status st{};
          for (int i = 0; i < 3; ++i) {
            co_await self.probe(mpi::kAnySource, mpi::kAnyTag, &st);
            co_await self.recv(st.source, st.tag);
          }
        }
        co_await self.finalize();
      });
  EXPECT_TRUE(result.allFinalized);
  EXPECT_FALSE(result.deadlockReported);
}

TEST(Tool, PeriodicDetectionFindsDeadlockMidRun) {
  // Two ranks deadlock immediately; two others keep computing for a long
  // virtual time. Periodic detection finds the partial deadlock while the
  // rest of the app still runs (intermediate state, paper §3.2).
  ToolConfig cfg{.fanIn = 2};
  cfg.periodicDetection = 5 * sim::kMillisecond;
  const auto result = runWithTool(
      4, smallWorld(), cfg, [](Proc& self) -> sim::Task {
        if (self.rank() < 2) {
          co_await self.recv(1 - self.rank());
          co_await self.send(1 - self.rank());
        } else {
          for (int i = 0; i < 100; ++i) {
            co_await self.compute(1 * sim::kMillisecond);
            co_await self.sendrecv(self.rank() == 2 ? 3 : 2, 0, 4,
                                   self.rank() == 2 ? 3 : 2, 0);
          }
        }
        co_await self.finalize();
      });
  EXPECT_FALSE(result.allFinalized);
  ASSERT_TRUE(result.deadlockReported);
  EXPECT_EQ(result.report->check.deadlocked,
            (std::vector<trace::ProcId>{0, 1}));
}

TEST(Tool, BackpressureSlowsButDoesNotBreakApp) {
  ToolConfig cfg{.fanIn = 2};
  cfg.overlay.appToLeaf.credits = 2;  // tiny buffers: heavy backpressure
  cfg.newOpCost = 5'000;
  const auto program = [](Proc& self) -> sim::Task {
    const mpi::Rank n = self.worldSize();
    for (int i = 0; i < 10; ++i) {
      co_await self.sendrecv((self.rank() + 1) % n, 0, 4,
                             (self.rank() + n - 1) % n, 0);
    }
    co_await self.finalize();
  };
  const auto ref = runReference(4, smallWorld(), program);
  const auto tooled = runWithTool(4, smallWorld(), cfg, program);
  EXPECT_TRUE(tooled.allFinalized);
  EXPECT_FALSE(tooled.deadlockReported);
  EXPECT_GT(tooled.slowdownOver(ref), 1.5);
}

TEST(Tool, CentralizedSlowerThanDistributedOnStress) {
  const auto program = [](Proc& self) -> sim::Task {
    const mpi::Rank n = self.worldSize();
    for (int i = 0; i < 100; ++i) {
      co_await self.sendrecv((self.rank() + 1) % n, 0, 4,
                             (self.rank() + n - 1) % n, 0);
      if (i % 10 == 9) co_await self.barrier();
    }
    co_await self.finalize();
  };
  const std::int32_t p = 16;
  ToolConfig dcfg{.fanIn = 4};
  dcfg.overlay.appToLeaf.credits = 16;
  ToolConfig ccfg = DistributedTool::centralizedConfig(p, dcfg);
  const auto ref = runReference(p, {}, program);
  const auto dist = runWithTool(p, {}, dcfg, program);
  const auto cent = runWithTool(p, {}, ccfg, program);
  EXPECT_TRUE(dist.allFinalized);
  EXPECT_TRUE(cent.allFinalized);
  EXPECT_GT(dist.slowdownOver(ref), 1.0);
  EXPECT_GT(cent.slowdownOver(ref), dist.slowdownOver(ref));
}

TEST(Tool, StressMatchingOutcomeIsPinned) {
  // The paper's Fig. 9 stress program at p = 64 under the fig09 cluster and
  // tool cost model. The values were recorded with an eviction that
  // rescanned the whole consumed history on every match. The engine trace
  // hash covers every event in order, so a changed matching decision moves
  // it; the counters pin how many over-bound matches evicted an entry and
  // how many found every entry pinned.
  sim::ParallelEngine engine(1);
  Runtime runtime(engine, bench::sierraLike(), 64);
  DistributedTool tool(engine, runtime, bench::distributedTool(4));
  runtime.runToCompletion(workloads::cyclicExchange());
  EXPECT_TRUE(runtime.allFinalized());
  EXPECT_FALSE(tool.deadlockFound());
  EXPECT_EQ(engine.traceHash(), 0xa360a14736047b6eull);
  support::MetricsRegistry& metrics = tool.metrics();
  EXPECT_EQ(metrics.counter("tracker/consumed_evictions").value(), 33u);
  EXPECT_EQ(metrics.counter("tracker/consumed_pinned").value(), 2655u);
  EXPECT_EQ(metrics.gauge("tracker/max_window").max(), 56);
}

TEST(Tool, CollectiveMismatchFlaggedAtRoot) {
  const auto result = runWithTool(
      2, smallWorld(), ToolConfig{.fanIn = 2}, [](Proc& self) -> sim::Task {
        if (self.rank() == 0) {
          co_await self.barrier();
        } else {
          co_await self.allreduce();
        }
        co_await self.finalize();
      });
  // The runtime completes the (mismatched) wave; the tool's collective
  // matching at the root flags it.
  EXPECT_TRUE(result.allFinalized);
}

TEST(Tool, AnalysisStatisticsExposed) {
  const auto result = runWithTool(
      4, smallWorld(), ToolConfig{.fanIn = 2}, [](Proc& self) -> sim::Task {
        co_await self.barrier();
        co_await self.finalize();
      });
  EXPECT_TRUE(result.allFinalized);
  EXPECT_EQ(result.transitions, 4u);  // one barrier transition per rank
  EXPECT_GT(result.toolMessages, 0u);
  EXPECT_GE(result.maxWindow, 1u);
}

// --- Wait-state batching at stress scale -----------------------------------

TEST(ToolBatching, HalvesIntralayerChannelMessagesAtStressScale) {
  // Cyclic exchange at 256 processes with the exchange distance equal to the
  // fan-in: every rank's partner lives on the neighbouring tool node, so each
  // intralayer link multiplexes fanIn independent handshake chains — the
  // traffic pattern batching is built for. (At distance 1 each link carries a
  // single serial passSend/recvActive/ack chain and coalescing is bounded by
  // the round trip.)
  workloads::StressParams params;
  params.iterations = 30;
  params.neighborDistance = 4;
  const auto program = workloads::cyclicExchange(params);

  ToolConfig plain{.fanIn = 4};
  ToolConfig batched = plain;
  batched.batchWaitState = true;  // default waitStateBatch policy

  const auto base = runWithTool(256, mpi::RuntimeConfig{}, plain, program);
  const auto coalesced =
      runWithTool(256, mpi::RuntimeConfig{}, batched, program);

  // Identical analysis outcome.
  EXPECT_TRUE(base.allFinalized);
  EXPECT_TRUE(coalesced.allFinalized);
  EXPECT_EQ(base.deadlockReported, coalesced.deadlockReported);
  EXPECT_EQ(base.report.has_value(), coalesced.report.has_value());
  EXPECT_EQ(base.detections, coalesced.detections);

  // Batching changes the physical envelope count, not the logical traffic.
  EXPECT_EQ(base.intralayerMessages, coalesced.intralayerMessages);
  EXPECT_EQ(base.intralayerMessages, base.intralayerChannelMessages);
  EXPECT_GE(coalesced.intralayerMessages,
            2 * coalesced.intralayerChannelMessages);

  // Both runs expose the traffic in their metrics dumps.
  EXPECT_NE(base.metricsJson.find("overlay/channel_messages/intralayer"),
            std::string::npos);
  EXPECT_NE(coalesced.metricsJson.find("overlay/batch_occupancy"),
            std::string::npos);
}

TEST(ToolBatching, PreservesDeadlockVerdictAndWfgOutput) {
  // The unsafe ring without send buffering manifests a send-send deadlock;
  // batching must produce the identical report.
  workloads::StressParams params;
  params.iterations = 5;
  params.neighborDistance = 4;
  const auto program = workloads::unsafeCyclicExchange(params);
  mpi::RuntimeConfig world;
  world.bufferStandardSends = false;

  ToolConfig plain{.fanIn = 4};
  ToolConfig batched = plain;
  batched.batchWaitState = true;

  const auto base = runWithTool(256, world, plain, program);
  const auto coalesced = runWithTool(256, world, batched, program);

  EXPECT_FALSE(base.allFinalized);
  EXPECT_FALSE(coalesced.allFinalized);
  ASSERT_TRUE(base.deadlockReported);
  ASSERT_TRUE(coalesced.deadlockReported);
  EXPECT_EQ(base.report->summary, coalesced.report->summary);
  EXPECT_EQ(base.report->check.deadlocked, coalesced.report->check.deadlocked);
  EXPECT_EQ(base.report->check.cycle, coalesced.report->check.cycle);
  EXPECT_EQ(base.report->dotBytes, coalesced.report->dotBytes);
  EXPECT_EQ(base.report->html, coalesced.report->html);
}

TEST(Tool, DeadlockReportIncludesWaitHistoryWhenTraced) {
  // With the flight recorder attached, the HTML report gains a per-process
  // blocked-time attribution section and a tail of recorded events for every
  // deadlocked process.
  sim::Engine engine;
  support::Tracer::Config traceCfg;
  traceCfg.clock = [&engine] {
    return static_cast<std::uint64_t>(engine.now());
  };
  support::Tracer tracer(traceCfg);
  ToolConfig toolCfg{.fanIn = 4};
  toolCfg.tracer = &tracer;
  mpi::Runtime runtime(engine, smallWorld(), 8);
  runtime.setTracer(&tracer);
  DistributedTool tool(engine, runtime, toolCfg);
  runtime.runToCompletion(workloads::wildcardDeadlock());
  EXPECT_FALSE(runtime.allFinalized());
  ASSERT_TRUE(tool.report());
  ASSERT_TRUE(tool.report()->deadlock);
  const std::string before = tool.report()->html;
  EXPECT_EQ(before.find("Wait history"), std::string::npos);

  tool.attachTraceToReport();
  const std::string& html = tool.report()->html;
  EXPECT_NE(html.find("Wait history (flight recorder)"), std::string::npos);
  EXPECT_NE(html.find("ns blocked"), std::string::npos);
  EXPECT_NE(html.find("flight-recorder events"), std::string::npos);
  // Every deadlocked process gets its own section.
  for (const auto proc : tool.report()->check.deadlocked) {
    EXPECT_NE(html.find(support::format("<h3>Process %d", proc)),
              std::string::npos)
        << "missing wait history for process " << proc;
  }
  // The report still ends well-formed.
  EXPECT_NE(html.find("</body></html>"), std::string::npos);
}

TEST(Tool, AttachTraceToReportIsANoOpWithoutTracer) {
  sim::Engine engine;
  mpi::Runtime runtime(engine, smallWorld(), 8);
  DistributedTool tool(engine, runtime, ToolConfig{.fanIn = 4});
  runtime.runToCompletion(workloads::wildcardDeadlock());
  ASSERT_TRUE(tool.report());
  const std::string before = tool.report()->html;
  tool.attachTraceToReport();
  EXPECT_EQ(tool.report()->html, before);
  EXPECT_EQ(before.find("Wait history"), std::string::npos);
}

}  // namespace
}  // namespace wst::must
