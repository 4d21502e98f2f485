#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/parallel_engine.hpp"
#include "tbon/overlay.hpp"
#include "tbon/topology.hpp"

namespace wst::tbon {
namespace {

struct Msg {
  int tag = 0;
};

struct Fixture {
  sim::ParallelEngine engine;
  Topology topology;
  Overlay<Msg> overlay;
  std::vector<std::pair<NodeId, int>> received;

  explicit Fixture(std::int32_t procs, std::int32_t fanIn,
                   OverlayConfig cfg = {}, sim::Duration cost = 0)
      : topology(procs, fanIn),
        overlay(engine, topology, cfg, [cost](NodeId, const Msg&) {
          return cost;
        }) {
    overlay.setHandler([this](NodeId node, Msg&& m) {
      received.emplace_back(node, m.tag);
    });
  }
};

TEST(Overlay, InjectReachesHostingLeaf) {
  Fixture f(8, 4);
  f.overlay.inject(5, Msg{55}, 8);
  f.engine.run();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(f.received[0].first, f.topology.nodeOfProc(5));
  EXPECT_EQ(f.received[0].second, 55);
}

TEST(Overlay, SendUpReachesParentAndDownReachesChild) {
  Fixture f(8, 4);  // nodes 0,1 -> root 2
  // Both messages arrive at 2 us, on different nodes' LPs. The engine
  // defines no order between LPs at one time, so check each node.
  std::map<NodeId, std::pair<int, sim::Time>> arrivals;
  f.overlay.setHandler([&f, &arrivals](NodeId node, Msg&& m) {
    arrivals[node] = {m.tag, f.engine.now()};
  });
  f.overlay.sendUp(0, Msg{1}, 4);
  f.overlay.sendDown(2, 1, Msg{2}, 4);
  f.engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[2], (std::pair<int, sim::Time>{1, 2'000}));
  EXPECT_EQ(arrivals[1], (std::pair<int, sim::Time>{2, 2'000}));
}

TEST(Overlay, IntralayerAndSelfDelivery) {
  Fixture f(8, 4);
  f.overlay.sendIntralayer(0, 1, Msg{7}, 4);
  f.overlay.sendIntralayer(1, 1, Msg{8}, 4);  // self-send
  f.engine.run();
  ASSERT_EQ(f.received.size(), 2u);
  // Self-send has zero latency, delivered first.
  EXPECT_EQ(f.received[0], (std::pair<NodeId, int>{1, 8}));
  EXPECT_EQ(f.received[1], (std::pair<NodeId, int>{1, 7}));
}

TEST(Overlay, PerLinkFifoOrder) {
  Fixture f(8, 4);
  for (int i = 0; i < 10; ++i) f.overlay.sendIntralayer(0, 1, Msg{i}, 4);
  f.engine.run();
  ASSERT_EQ(f.received.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(f.received[i].second, i);
}

TEST(Overlay, ServiceCostSerializesNodeProcessing) {
  Fixture f(8, 4, {}, /*cost=*/1'000);
  const sim::Time start = f.engine.now();
  for (int i = 0; i < 5; ++i) f.overlay.inject(0, Msg{i}, 4);
  f.engine.run();
  // 5 messages, 1us service each, processed sequentially after ~2us latency.
  EXPECT_GE(f.engine.now() - start, 2'000u + 4u * 1'000u);
  EXPECT_EQ(f.received.size(), 5u);
}

TEST(Overlay, CreditsBackpressureProducers) {
  OverlayConfig cfg;
  cfg.appToLeaf.credits = 2;
  Fixture f(4, 4, cfg, /*cost=*/500);
  EXPECT_TRUE(f.overlay.canInject(0));
  f.overlay.inject(0, Msg{1}, 4);
  f.overlay.inject(0, Msg{2}, 4);
  EXPECT_FALSE(f.overlay.canInject(0));
  bool woken = false;
  f.overlay.onceInjectCredit(0, [&] { woken = true; });
  f.engine.run();  // processing returns credits
  EXPECT_TRUE(woken);
  EXPECT_TRUE(f.overlay.canInject(0));
}

TEST(Overlay, UnthrottledInjectionBypassesCredits) {
  OverlayConfig cfg;
  cfg.appToLeaf.credits = 1;
  Fixture f(4, 4, cfg);
  f.overlay.inject(0, Msg{1}, 4);
  EXPECT_FALSE(f.overlay.canInject(0));
  f.overlay.injectUnthrottled(0, Msg{2}, 4);  // must not assert or block
  f.engine.run();
  EXPECT_EQ(f.received.size(), 2u);
}

TEST(Overlay, CountsTrafficByLinkClass) {
  Fixture f(8, 4);
  f.overlay.inject(0, Msg{}, 10);
  f.overlay.sendUp(0, Msg{}, 20);
  f.overlay.sendDown(2, 0, Msg{}, 30);
  f.overlay.sendIntralayer(0, 1, Msg{}, 40);
  f.engine.run();
  EXPECT_EQ(f.overlay.messages(LinkClass::kAppToLeaf), 1u);
  EXPECT_EQ(f.overlay.bytes(LinkClass::kAppToLeaf), 10u);
  EXPECT_EQ(f.overlay.messages(LinkClass::kUp), 1u);
  EXPECT_EQ(f.overlay.bytes(LinkClass::kUp), 20u);
  EXPECT_EQ(f.overlay.messages(LinkClass::kDown), 1u);
  EXPECT_EQ(f.overlay.messages(LinkClass::kIntralayer), 1u);
  EXPECT_EQ(f.overlay.totalMessages(), 4u);
}

// --- batching --------------------------------------------------------------

OverlayConfig batchedConfig(BatchConfig batch) {
  OverlayConfig cfg;
  cfg.batch[static_cast<std::size_t>(LinkClass::kIntralayer)] = batch;
  cfg.batch[static_cast<std::size_t>(LinkClass::kUp)] = batch;
  return cfg;
}

TEST(OverlayBatch, CoalescesSameInstantSends) {
  Fixture f(8, 4, batchedConfig({.maxMessages = 64, .flushInterval = 0}));
  for (int i = 0; i < 10; ++i) f.overlay.sendIntralayer(0, 1, Msg{i}, 4);
  f.engine.run();
  ASSERT_EQ(f.received.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(f.received[i].second, i);
  EXPECT_EQ(f.overlay.messages(LinkClass::kIntralayer), 10u);
  EXPECT_EQ(f.overlay.channelMessages(LinkClass::kIntralayer), 1u);
  EXPECT_EQ(f.overlay.channelBytes(LinkClass::kIntralayer), 40u);
}

TEST(OverlayBatch, SizeThresholdFlushesEagerly) {
  Fixture f(8, 4, batchedConfig({.maxMessages = 4, .flushInterval = 50'000}));
  for (int i = 0; i < 10; ++i) f.overlay.sendIntralayer(0, 1, Msg{i}, 4);
  f.engine.run();
  ASSERT_EQ(f.received.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(f.received[i].second, i);
  // 4 + 4 by threshold, the trailing 2 by the flush timer.
  EXPECT_EQ(f.overlay.channelMessages(LinkClass::kIntralayer), 3u);
}

TEST(OverlayBatch, ByteThresholdFlushesEagerly) {
  Fixture f(8, 4,
            batchedConfig(
                {.maxMessages = 64, .maxBytes = 100, .flushInterval = 50'000}));
  for (int i = 0; i < 6; ++i) f.overlay.sendIntralayer(0, 1, Msg{i}, 40);
  f.engine.run();
  ASSERT_EQ(f.received.size(), 6u);
  // 120 bytes trip the 100-byte trigger after 3 messages, twice.
  EXPECT_EQ(f.overlay.channelMessages(LinkClass::kIntralayer), 2u);
}

TEST(OverlayBatch, FlushIntervalDelaysDelivery) {
  OverlayConfig plain;
  Fixture unbatched(8, 4, plain);
  unbatched.overlay.sendIntralayer(0, 1, Msg{1}, 4);
  unbatched.engine.run();
  const sim::Time plainArrival = unbatched.engine.now();

  Fixture f(8, 4, batchedConfig({.maxMessages = 64, .flushInterval = 7'000}));
  f.overlay.sendIntralayer(0, 1, Msg{1}, 4);
  f.engine.run();
  EXPECT_EQ(f.engine.now(), plainArrival + 7'000);
  ASSERT_EQ(f.received.size(), 1u);
}

TEST(OverlayBatch, BypassFlushesStagedTrafficFirst) {
  Fixture f(8, 4, batchedConfig({.maxMessages = 64, .flushInterval = 50'000}));
  // Negative tags are control-plane messages that must not be delayed.
  f.overlay.setBatchable([](const Msg& m) { return m.tag >= 0; });
  f.overlay.sendIntralayer(0, 1, Msg{0}, 4);
  f.overlay.sendIntralayer(0, 1, Msg{1}, 4);
  f.overlay.sendIntralayer(0, 1, Msg{-1}, 4);
  f.engine.run();
  // The bypass message must not overtake the staged batch: arrival order is
  // exactly send order, and nothing waits for the flush timer.
  ASSERT_EQ(f.received.size(), 3u);
  EXPECT_EQ(f.received[0].second, 0);
  EXPECT_EQ(f.received[1].second, 1);
  EXPECT_EQ(f.received[2].second, -1);
  // One batch envelope + one bypass message.
  EXPECT_EQ(f.overlay.channelMessages(LinkClass::kIntralayer), 2u);
  EXPECT_EQ(f.overlay.messages(LinkClass::kIntralayer), 3u);
}

TEST(OverlayBatch, TreeUpBatches) {
  Fixture f(8, 4, batchedConfig({.maxMessages = 64, .flushInterval = 0}));
  f.overlay.sendUp(0, Msg{1}, 8);
  f.overlay.sendUp(0, Msg{2}, 8);
  f.engine.run();
  ASSERT_EQ(f.received.size(), 2u);
  EXPECT_EQ(f.overlay.messages(LinkClass::kUp), 2u);
  EXPECT_EQ(f.overlay.channelMessages(LinkClass::kUp), 1u);
}

TEST(OverlayBatch, AmortizedServiceCost) {
  // 4 messages at cost 1000 with factor 0.25: the receiver stays busy
  // 1000 + 3 * 250 instead of 4 * 1000.
  BatchConfig batch{.maxMessages = 64,
                    .flushInterval = 0,
                    .amortizedCostFactor = 0.25};
  Fixture f(8, 4, batchedConfig(batch), /*cost=*/1'000);
  for (int i = 0; i < 4; ++i) f.overlay.sendIntralayer(0, 1, Msg{i}, 4);
  f.engine.run();
  const sim::Time batchedEnd = f.engine.now();

  Fixture plain(8, 4, {}, /*cost=*/1'000);
  for (int i = 0; i < 4; ++i) plain.overlay.sendIntralayer(0, 1, Msg{i}, 4);
  plain.engine.run();
  // The last event in either run is the 4th message's dequeue, so the
  // visible saving is the cheaper service of the 2nd and 3rd messages.
  EXPECT_EQ(plain.engine.now() - batchedEnd, 2u * 750u);
}

TEST(OverlayBatch, UnbatchedClassesUnaffected) {
  Fixture f(8, 4, batchedConfig({.maxMessages = 64, .flushInterval = 0}));
  f.overlay.inject(0, Msg{1}, 4);
  f.overlay.sendDown(2, 0, Msg{2}, 4);
  f.engine.run();
  EXPECT_EQ(f.overlay.channelMessages(LinkClass::kAppToLeaf), 1u);
  EXPECT_EQ(f.overlay.channelMessages(LinkClass::kDown), 1u);
  EXPECT_EQ(f.overlay.totalChannelMessages(), f.overlay.totalMessages());
}

TEST(OverlayBatch, MetricsRecordOccupancy) {
  support::MetricsRegistry metrics;
  Fixture f(8, 4, batchedConfig({.maxMessages = 4, .flushInterval = 0}));
  f.overlay.setMetrics(&metrics);
  for (int i = 0; i < 6; ++i) f.overlay.sendIntralayer(0, 1, Msg{i}, 4);
  f.engine.run();
  const auto& occupancy = metrics.histogram("overlay/batch_occupancy");
  EXPECT_EQ(occupancy.count(), 2u);  // one flush of 4, one of 2
  EXPECT_EQ(occupancy.max(), 4u);
  EXPECT_EQ(occupancy.sum(), 6u);
  EXPECT_GT(metrics.histogram("overlay/queue_depth").count(), 0u);
}

// --- fault injection --------------------------------------------------------------

OverlayConfig faultedConfig(std::uint64_t seed) {
  OverlayConfig cfg;
  cfg.faults.enabled = true;
  cfg.faults.seed = seed;
  cfg.faults.dropProb = 0.30;
  cfg.faults.dupProb = 0.25;
  cfg.faults.delayProb = 0.40;
  cfg.faults.maxExtraDelay = 15'000;
  return cfg;
}

struct FaultFixture : Fixture {
  explicit FaultFixture(std::uint64_t seed) : Fixture(8, 4, faultedConfig(seed)) {
    overlay.setFaultable([](const Msg&) { return true; });
  }
};

TEST(OverlayFaults, ReliableLayerDeliversExactlyOnceInOrder) {
  FaultFixture f(/*seed=*/7);
  for (int i = 0; i < 60; ++i) f.overlay.sendIntralayer(0, 1, Msg{i}, 4);
  for (int i = 0; i < 20; ++i) f.overlay.sendUp(0, Msg{100 + i}, 4);
  f.engine.run();

  // Every message arrives exactly once, per-link order intact, despite the
  // injector dropping, duplicating and delaying transmissions underneath.
  std::vector<int> atNode1;
  std::vector<int> atRoot;
  for (const auto& [node, tag] : f.received) {
    (node == 1 ? atNode1 : atRoot).push_back(tag);
  }
  ASSERT_EQ(atNode1.size(), 60u);
  ASSERT_EQ(atRoot.size(), 20u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(atNode1[static_cast<std::size_t>(i)], i);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(atRoot[static_cast<std::size_t>(i)], 100 + i);
  }

  // With these probabilities over 80 messages the injector certainly fired,
  // and every perturbation left a healing trace.
  const FaultStats s = f.overlay.faultStats();
  EXPECT_GT(s.dropsInjected, 0u);
  EXPECT_GT(s.dupsInjected, 0u);
  EXPECT_GT(s.delaysInjected, 0u);
  EXPECT_GE(s.retransmits, s.dropsInjected);
  EXPECT_GE(s.duplicatesDiscarded, s.dupsInjected);
  EXPECT_GT(s.acksSent, 0u);
}

TEST(OverlayFaults, ScheduleIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    FaultFixture f(seed);
    for (int i = 0; i < 40; ++i) f.overlay.sendIntralayer(0, 1, Msg{i}, 4);
    f.engine.run();
    return f.overlay.faultStats();
  };
  const FaultStats a = run(21);
  const FaultStats b = run(21);
  EXPECT_EQ(a.dropsInjected, b.dropsInjected);
  EXPECT_EQ(a.dupsInjected, b.dupsInjected);
  EXPECT_EQ(a.delaysInjected, b.delaysInjected);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.duplicatesDiscarded, b.duplicatesDiscarded);
  EXPECT_EQ(a.reordersBuffered, b.reordersBuffered);
  EXPECT_EQ(a.acksSent, b.acksSent);
  // A different seed draws a different schedule (overwhelmingly likely
  // with 40 messages at these probabilities).
  const FaultStats c = run(22);
  EXPECT_TRUE(a.dropsInjected != c.dropsInjected ||
              a.dupsInjected != c.dupsInjected ||
              a.delaysInjected != c.delaysInjected);
}

TEST(OverlayFaults, ControlPlaneNeverPerturbed) {
  // Messages the faultable predicate rejects are sequenced but never
  // dropped, duplicated, or delayed.
  FaultFixture f(/*seed=*/5);
  f.overlay.setFaultable([](const Msg& m) { return m.tag >= 1000; });
  for (int i = 0; i < 30; ++i) f.overlay.sendIntralayer(0, 1, Msg{i}, 4);
  f.engine.run();
  ASSERT_EQ(f.received.size(), 30u);
  const FaultStats s = f.overlay.faultStats();
  EXPECT_EQ(s.dropsInjected, 0u);
  EXPECT_EQ(s.dupsInjected, 0u);
  EXPECT_EQ(s.delaysInjected, 0u);
  EXPECT_EQ(s.retransmits, 0u);
}

TEST(OverlayFaults, JitterPreservesPerLinkOrder) {
  OverlayConfig cfg;
  cfg.intralayer.jitter = 5'000;
  cfg.intralayer.jitterSeed = 99;
  Fixture f(8, 4, cfg);
  for (int i = 0; i < 25; ++i) f.overlay.sendIntralayer(0, 1, Msg{i}, 4);
  f.engine.run();
  ASSERT_EQ(f.received.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(f.received[static_cast<std::size_t>(i)].second, i);
  }
}

}  // namespace
}  // namespace wst::tbon
