// Unit tests of the distributed wait state tracker (paper Figure 7),
// driven directly through a loopback harness — no TBON, every message
// observable.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "waitstate/distributed_tracker.hpp"
#include "wfg/graph.hpp"

namespace wst::waitstate {
namespace {

using trace::Kind;
using trace::OpId;
using trace::ProcId;
using trace::Record;

/// Loopback "network": routes tracker messages to the hosting tracker
/// through a global FIFO queue and plays the TBON root for collectives.
struct Harness : Comms {
  std::int32_t fanIn;
  MapCommView comms;
  std::vector<std::unique_ptr<DistributedTracker>> nodes;
  std::deque<std::function<void()>> queue;
  bool draining = false;

  // Message counters for protocol assertions.
  int passSends = 0, recvActives = 0, recvActiveAcks = 0;
  int collectiveReadies = 0, collectiveAcks = 0;
  std::map<std::pair<mpi::CommId, std::uint32_t>, std::uint32_t> rootWaves;

  Harness(std::int32_t procs, std::int32_t fanIn_,
          TrackerConfig cfg = {})
      : fanIn(fanIn_), comms(procs) {
    for (ProcId lo = 0; lo < procs; lo += fanIn) {
      const ProcId hi = std::min(procs, lo + fanIn);
      nodes.push_back(
          std::make_unique<DistributedTracker>(lo, hi, *this, comms, cfg));
    }
  }

  DistributedTracker& of(ProcId proc) {
    return *nodes[static_cast<std::size_t>(proc / fanIn)];
  }

  void post(std::function<void()> fn) {
    queue.push_back(std::move(fn));
    if (draining) return;
    draining = true;
    while (!queue.empty()) {
      auto f = std::move(queue.front());
      queue.pop_front();
      f();
    }
    draining = false;
  }

  // Comms:
  void passSend(const PassSendMsg& msg) override {
    ++passSends;
    post([this, msg] { of(msg.destProc).onPassSend(msg); });
  }
  void recvActive(ProcId sendProc, const RecvActiveMsg& msg) override {
    ++recvActives;
    post([this, sendProc, msg] { of(sendProc).onRecvActive(msg); });
  }
  void recvActiveAck(ProcId recvProc,
                     const RecvActiveAckMsg& msg) override {
    ++recvActiveAcks;
    post([this, recvProc, msg] { of(recvProc).onRecvActiveAck(msg); });
  }
  void collectiveReady(const CollectiveReadyMsg& msg) override {
    ++collectiveReadies;
    post([this, msg] {
      auto& count = rootWaves[{msg.comm, msg.wave}];
      count += msg.readyCount;
      if (count == comms.group(msg.comm).size()) {
        ++collectiveAcks;
        const CollectiveAckMsg ack{msg.comm, msg.wave};
        for (auto& node : nodes) {
          post([&node, ack] { node->onCollectiveAck(ack); });
        }
      }
    });
  }

  // Application-side feeding.
  std::vector<trace::LocalTs> nextTs;
  Record rec(ProcId p, Kind kind) {
    if (nextTs.empty()) {
      nextTs.assign(nodes.size() * static_cast<std::size_t>(fanIn), 0);
    }
    Record r;
    r.id = OpId{p, nextTs[static_cast<std::size_t>(p)]++};
    r.kind = kind;
    return r;
  }
  void newOp(Record r) {
    post([this, r] { of(r.id.proc).onNewOp(r); });
  }
  void send(ProcId p, mpi::Rank to, mpi::Tag tag = 0) {
    Record r = rec(p, Kind::kSend);
    r.peer = to;
    r.tag = tag;
    newOp(r);
  }
  void recv(ProcId p, mpi::Rank from, mpi::Tag tag = 0) {
    Record r = rec(p, Kind::kRecv);
    r.peer = from;
    r.tag = tag;
    newOp(r);
  }
  void barrier(ProcId p) {
    Record r = rec(p, Kind::kCollective);
    r.collective = mpi::CollectiveKind::kBarrier;
    newOp(r);
  }
  void finalize(ProcId p) { newOp(rec(p, Kind::kFinalize)); }
  void matchInfo(OpId recvOp, mpi::Rank source, mpi::Tag tag = 0) {
    post([this, recvOp, source, tag] {
      of(recvOp.proc).onMatchInfo(trace::MatchInfoEvent{recvOp, source, tag});
    });
  }
};

TEST(DistributedTracker, SendRecvAcrossNodesAdvancesBoth) {
  Harness h(4, 2);  // procs {0,1} on node 0, {2,3} on node 1
  h.send(0, 2);
  h.recv(2, 0);
  h.finalize(0);
  h.finalize(2);
  h.finalize(1);
  h.finalize(3);
  EXPECT_TRUE(h.of(0).finishedProc(0));
  EXPECT_TRUE(h.of(2).finishedProc(2));
  // Protocol: exactly one passSend, one recvActive, one recvActiveAck.
  EXPECT_EQ(h.passSends, 1);
  EXPECT_EQ(h.recvActives, 1);
  EXPECT_EQ(h.recvActiveAcks, 1);
}

TEST(DistributedTracker, BlockingSendWaitsForRecvActive) {
  Harness h(4, 2);
  h.send(0, 2);
  EXPECT_EQ(h.of(0).current(0), 0u);  // send blocked: no recvActive yet
  h.recv(2, 0);
  // Receive matched and active -> recvActive -> ack -> both advance.
  EXPECT_EQ(h.of(0).current(0), 1u);
  EXPECT_EQ(h.of(2).current(2), 1u);
}

TEST(DistributedTracker, RecvBeforeSendAlsoCompletes) {
  Harness h(4, 2);
  h.recv(2, 0);
  EXPECT_EQ(h.of(2).current(2), 0u);
  h.send(0, 2);
  EXPECT_EQ(h.of(0).current(0), 1u);
  EXPECT_EQ(h.of(2).current(2), 1u);
}

TEST(DistributedTracker, SameNodeMatchingWorksViaLoopback) {
  Harness h(4, 4);  // single node hosts everyone
  h.send(0, 1);
  h.recv(1, 0);
  EXPECT_EQ(h.of(0).current(0), 1u);
  EXPECT_EQ(h.of(1).current(1), 1u);
}

TEST(DistributedTracker, TagMatchingFollowsTagsNotArrivalOrder) {
  Harness h(4, 2);
  // First send is non-blocking so cross-tag consumption order is legal.
  Record is = h.rec(0, Kind::kIsend);
  is.peer = 2;
  is.tag = 1;
  is.request = 0;
  h.newOp(is);
  h.send(0, 2, /*tag=*/2);
  // Receiver consumes tag 2 first, then tag 1: matching must pair by tag.
  h.recv(2, 0, /*tag=*/2);
  h.recv(2, 0, /*tag=*/1);
  EXPECT_EQ(h.of(0).current(0), 2u);
  EXPECT_EQ(h.of(2).current(2), 2u);
}

TEST(DistributedTracker, CrossTagBlockingSendsDeadlockConservatively) {
  // send(tag 1); send(tag 2) against recv(tag 2); recv(tag 1): with strict
  // (unbuffered) standard sends this is a real deadlock — the first send
  // waits for the second receive and vice versa.
  Harness h(4, 2);
  h.send(0, 2, /*tag=*/1);
  h.send(0, 2, /*tag=*/2);
  h.recv(2, 0, /*tag=*/2);
  h.recv(2, 0, /*tag=*/1);
  EXPECT_EQ(h.of(0).current(0), 0u);
  EXPECT_EQ(h.of(2).current(2), 0u);
  wfg::WaitForGraph graph(4);
  for (ProcId p = 0; p < 4; ++p) graph.setNode(h.of(p).waitConditions(p));
  const auto result = graph.check();
  EXPECT_TRUE(result.deadlock);
  EXPECT_EQ(result.deadlocked, (std::vector<ProcId>{0, 2}));
}

TEST(DistributedTracker, WildcardWaitsForMatchInfo) {
  Harness h(4, 2);
  h.send(0, 2);
  Record r = h.rec(2, Kind::kRecv);
  r.peer = mpi::kAnySource;
  r.tag = mpi::kAnyTag;
  const OpId recvId = r.id;
  h.newOp(r);
  // Without resolution, neither side advances (the match is unknown).
  EXPECT_EQ(h.of(0).current(0), 0u);
  EXPECT_EQ(h.of(2).current(2), 0u);
  h.matchInfo(recvId, /*source=*/0, /*tag=*/0);
  EXPECT_EQ(h.of(0).current(0), 1u);
  EXPECT_EQ(h.of(2).current(2), 1u);
}

TEST(DistributedTracker, BarrierAcrossNodesNeedsAck) {
  Harness h(4, 2);
  h.barrier(0);
  h.barrier(1);
  // Node 0 is ready (both hosted procs active) but the wave is incomplete.
  EXPECT_EQ(h.collectiveReadies, 1);
  EXPECT_EQ(h.of(0).current(0), 0u);
  h.barrier(2);
  h.barrier(3);
  EXPECT_EQ(h.collectiveReadies, 2);
  EXPECT_EQ(h.collectiveAcks, 1);
  for (ProcId p = 0; p < 4; ++p) EXPECT_EQ(h.of(p).current(p), 1u);
}

TEST(DistributedTracker, SuccessiveBarrierWavesKeepOrder) {
  Harness h(4, 2);
  for (int wave = 0; wave < 3; ++wave) {
    for (ProcId p = 0; p < 4; ++p) h.barrier(p);
  }
  for (ProcId p = 0; p < 4; ++p) EXPECT_EQ(h.of(p).current(p), 3u);
  EXPECT_EQ(h.collectiveAcks, 3);
}

TEST(DistributedTracker, IsendWaitCompletion) {
  Harness h(4, 2);
  Record isend = h.rec(0, Kind::kIsend);
  isend.peer = 2;
  isend.request = 0;
  h.newOp(isend);
  EXPECT_EQ(h.of(0).current(0), 1u);  // non-blocking: advances immediately
  Record wait = h.rec(0, Kind::kWait);
  wait.completes = {0};
  h.newOp(wait);
  EXPECT_EQ(h.of(0).current(0), 1u);  // Wait blocks: recv not reached
  h.recv(2, 0);
  EXPECT_EQ(h.of(0).current(0), 2u);  // recvActive marked the request reached
  EXPECT_EQ(h.of(2).current(2), 1u);
}

TEST(DistributedTracker, IrecvWaitCompletion) {
  Harness h(4, 2);
  Record irecv = h.rec(2, Kind::kIrecv);
  irecv.peer = 0;
  irecv.request = 0;
  h.newOp(irecv);
  Record wait = h.rec(2, Kind::kWait);
  wait.completes = {0};
  h.newOp(wait);
  EXPECT_EQ(h.of(2).current(2), 1u);  // blocked in Wait
  h.send(0, 2);
  // Irecv was already reached -> recvActive -> ack -> request reached.
  EXPECT_EQ(h.of(2).current(2), 2u);
  EXPECT_EQ(h.of(0).current(0), 1u);
}

TEST(DistributedTracker, WaitanyNeedsOneOfTwo) {
  Harness h(6, 2);
  Record ir1 = h.rec(0, Kind::kIrecv);
  ir1.peer = 2;
  ir1.request = 0;
  h.newOp(ir1);
  Record ir2 = h.rec(0, Kind::kIrecv);
  ir2.peer = 4;
  ir2.request = 1;
  h.newOp(ir2);
  Record waitany = h.rec(0, Kind::kWaitany);
  waitany.completes = {0, 1};
  h.newOp(waitany);
  EXPECT_EQ(h.of(0).current(0), 2u);  // blocked
  h.send(4, 0);  // only the second request's sender shows up
  EXPECT_EQ(h.of(0).current(0), 3u);
}

TEST(DistributedTracker, ProbeHandshakeDoesNotConsumeSend) {
  Harness h(4, 2);
  h.send(0, 2);
  Record probe = h.rec(2, Kind::kProbe);
  probe.peer = 0;
  h.newOp(probe);
  // Rule (2) for a probe: the matching send is active (l_0 = 0), so the
  // probe advances — but the send itself still waits for the real receive.
  EXPECT_EQ(h.of(2).current(2), 1u);
  EXPECT_EQ(h.of(0).current(0), 0u);  // send still blocked
  h.recv(2, 0);
  EXPECT_EQ(h.of(2).current(2), 2u);  // probe + recv both done
  EXPECT_EQ(h.of(0).current(0), 1u);
}

TEST(DistributedTracker, SendrecvBothHalves) {
  Harness h(4, 2);
  Record sr0 = h.rec(0, Kind::kSendrecv);
  sr0.peer = 2;
  sr0.recvPeer = 2;
  h.newOp(sr0);
  EXPECT_EQ(h.of(0).current(0), 0u);
  Record sr2 = h.rec(2, Kind::kSendrecv);
  sr2.peer = 0;
  sr2.recvPeer = 0;
  h.newOp(sr2);
  EXPECT_EQ(h.of(0).current(0), 1u);
  EXPECT_EQ(h.of(2).current(2), 1u);
}

TEST(DistributedTracker, RecvRecvDeadlockBlocksAndReportsConditions) {
  Harness h(4, 2);
  h.recv(0, 2);
  h.recv(2, 0);
  EXPECT_EQ(h.of(0).current(0), 0u);
  EXPECT_EQ(h.of(2).current(2), 0u);

  wfg::WaitForGraph graph(4);
  for (ProcId p = 0; p < 4; ++p) graph.setNode(h.of(p).waitConditions(p));
  graph.pruneCollectiveCoWaiters();
  const auto result = graph.check();
  EXPECT_TRUE(result.deadlock);
  EXPECT_EQ(result.deadlocked, (std::vector<ProcId>{0, 2}));
}

TEST(DistributedTracker, WildcardDeadlockProducesOrClauses) {
  const std::int32_t p = 8;
  Harness h(p, 2);
  for (ProcId i = 0; i < p; ++i) {
    Record r = h.rec(i, Kind::kRecv);
    r.peer = mpi::kAnySource;
    r.tag = mpi::kAnyTag;
    h.newOp(r);
  }
  wfg::WaitForGraph graph(p);
  for (ProcId i = 0; i < p; ++i) graph.setNode(h.of(i).waitConditions(i));
  const auto result = graph.check();
  EXPECT_TRUE(result.deadlock);
  EXPECT_EQ(result.deadlocked.size(), static_cast<std::size_t>(p));
  EXPECT_EQ(result.arcCount, static_cast<std::uint64_t>(p) * (p - 1));
}

TEST(DistributedTracker, CollectiveConditionsPruneAtRoot) {
  Harness h(4, 2);
  h.barrier(0);
  h.barrier(1);
  h.barrier(2);
  // Proc 3 is stuck in a receive instead.
  h.recv(3, 0);
  wfg::WaitForGraph graph(4);
  for (ProcId p = 0; p < 4; ++p) graph.setNode(h.of(p).waitConditions(p));
  graph.pruneCollectiveCoWaiters();
  const auto result = graph.check();
  EXPECT_TRUE(result.deadlock);
  EXPECT_EQ(result.deadlocked.size(), 4u);
  // After pruning, each barrier waiter targets only proc 3 (and proc 3
  // targets proc 0): 3 + 1 arcs.
  EXPECT_EQ(graph.arcCount(), 4u);
}

TEST(DistributedTracker, WindowStaysBoundedOnLongRuns) {
  Harness h(4, 2, TrackerConfig{});
  for (int iter = 0; iter < 200; ++iter) {
    h.send(0, 2);
    h.recv(2, 0);
  }
  h.finalize(0);
  h.finalize(2);
  EXPECT_TRUE(h.of(0).finishedProc(0));
  EXPECT_TRUE(h.of(2).finishedProc(2));
  // Retirement keeps windows tiny even over 200 iterations.
  EXPECT_LE(h.of(0).maxWindowSize(), 8u);
  EXPECT_LE(h.of(2).maxWindowSize(), 8u);
}

TEST(DistributedTracker, StopProgressFreezesTransitionsButHandlesMessages) {
  Harness h(4, 2);
  h.of(0).stopProgress();
  h.send(0, 2);
  h.recv(2, 0);
  // Node 0 is stopped: its send cannot take the transition even though the
  // recvActive message was delivered and processed.
  EXPECT_EQ(h.of(0).current(0), 0u);
  // The condition is visible: the process is NOT blocked (canAdvance holds).
  const auto cond = h.of(0).waitConditions(0);
  EXPECT_FALSE(cond.blocked);
  h.of(0).resumeProgress();
  EXPECT_EQ(h.of(0).current(0), 1u);
}

TEST(DistributedTracker, ActiveSendPeersForConsistentState) {
  Harness h(6, 2);
  h.send(0, 2);
  h.send(1, 4);
  const auto peers = h.of(0).activeSendPeerProcs();
  EXPECT_EQ(peers, (std::vector<ProcId>{2, 4}));
}

TEST(DistributedTracker, ConservativeSendBlocksFaithfulSendDoesNot) {
  TrackerConfig faithful;
  faithful.blockingModel = trace::BlockingModel::kImplementationFaithful;
  Harness h(4, 2, faithful);
  h.send(0, 2);  // small standard send: non-blocking under faithful model
  EXPECT_EQ(h.of(0).current(0), 1u);
}

// Regression: a collective on a proper sub-communicator whose group spans
// tracker nodes only partially. Node readiness must count the hosted *group
// members* (one per node here), not all hosted processes — counting every
// hosted process would stall the wave forever, since non-members never call
// the collective.
TEST(DistributedTracker, SubCommunicatorBarrierSplitAcrossNodes) {
  Harness h(4, 2);  // node 0 hosts {0,1}, node 1 hosts {2,3}
  const mpi::CommId sub = 42;
  h.comms.set(sub, {1, 2});
  // Non-members are busy elsewhere (blocked in an unrelated recv).
  h.recv(0, 3, /*tag=*/9);
  Record b1 = h.rec(1, Kind::kCollective);
  b1.collective = mpi::CollectiveKind::kBarrier;
  b1.comm = sub;
  h.newOp(b1);
  // Each node hosts exactly one member: node 0 is ready immediately, but
  // the root has only 1 of 2 group members — no ack yet, proc 1 blocked.
  EXPECT_EQ(h.collectiveReadies, 1);
  EXPECT_EQ(h.collectiveAcks, 0);
  EXPECT_EQ(h.of(1).current(1), 0u);
  Record b2 = h.rec(2, Kind::kCollective);
  b2.collective = mpi::CollectiveKind::kBarrier;
  b2.comm = sub;
  h.newOp(b2);
  EXPECT_EQ(h.collectiveReadies, 2);
  EXPECT_EQ(h.collectiveAcks, 1);
  EXPECT_EQ(h.of(1).current(1), 1u);
  EXPECT_EQ(h.of(2).current(2), 1u);
  // The non-member never participated and is still waiting on its recv.
  EXPECT_EQ(h.of(0).current(0), 0u);
}

// Two successive waves on the sub-communicator keep their order while a
// non-member on each node sits blocked; the ack must resolve by (comm,
// wave), not by whatever operation happens to be current on the node.
TEST(DistributedTracker, SubCommunicatorWavesWithBlockedNonMembers) {
  Harness h(6, 3);  // node 0 hosts {0,1,2}, node 1 hosts {3,4,5}
  const mpi::CommId sub = 9;
  h.comms.set(sub, {2, 3});
  h.recv(0, 4);  // non-member blocked on node 0
  h.recv(5, 1);  // non-member blocked on node 1
  for (int wave = 0; wave < 2; ++wave) {
    for (const ProcId member : {ProcId{2}, ProcId{3}}) {
      Record b = h.rec(member, Kind::kCollective);
      b.collective = mpi::CollectiveKind::kBarrier;
      b.comm = sub;
      h.newOp(b);
    }
  }
  EXPECT_EQ(h.collectiveAcks, 2);
  EXPECT_EQ(h.of(2).current(2), 2u);
  EXPECT_EQ(h.of(3).current(3), 2u);
  EXPECT_EQ(h.of(0).current(0), 0u);
  EXPECT_EQ(h.of(5).current(5), 0u);
}

// Regression: the consumed-send history bound. A wildcard probe whose
// MatchInfo arrives after more than `consumedHistory` sends were consumed
// on its channel can only resolve if the named send is still in history.
void runProbeAfterConsumedSends(const TrackerConfig& cfg, int traffic,
                                bool expectResolved,
                                std::uint64_t* evictions = nullptr) {
  Harness h(4, 2, cfg);
  // The wildcard probe posts first and stays pending (no MatchInfo yet).
  Record probe = h.rec(2, Kind::kProbe);
  probe.peer = mpi::kAnySource;
  probe.tag = mpi::kAnyTag;
  const OpId probeId = probe.id;
  h.newOp(probe);
  // `traffic` send/recv pairs on channel 0 -> 2 all match and retire.
  for (int i = 0; i < traffic; ++i) {
    h.send(0, 2, /*tag=*/100 + i);
    h.recv(2, 0, /*tag=*/100 + i);
  }
  EXPECT_EQ(h.of(2).current(2), 0u);  // probe still blocks the timeline
  // Late wildcard resolution: the probe had observed the FIRST send.
  h.matchInfo(probeId, /*source=*/0, /*tag=*/100);
  if (expectResolved) {
    EXPECT_GE(h.of(2).current(2), 1u) << "probe failed to resolve";
  } else {
    EXPECT_EQ(h.of(2).current(2), 0u) << "probe unexpectedly resolved";
  }
  if (evictions != nullptr && cfg.metrics != nullptr) {
    *evictions = cfg.metrics->counter("tracker/consumed_evictions").value();
  }
}

TEST(DistributedTracker, ProbeResolutionSurvivesHeavyTrafficWhenUnbounded) {
  TrackerConfig cfg;
  cfg.consumedHistory = 0;  // unbounded
  runProbeAfterConsumedSends(cfg, /*traffic=*/12, /*expectResolved=*/true);
}

TEST(DistributedTracker, ProbeResolutionSurvivesWithLargeEnoughBound) {
  TrackerConfig cfg;
  cfg.consumedHistory = 16;
  runProbeAfterConsumedSends(cfg, /*traffic=*/12, /*expectResolved=*/true);
}

TEST(DistributedTracker, DefaultBoundEvictsAndCountsInMetrics) {
  // Steady-state traffic with no probe in flight: every consuming receive
  // completes its recvActiveAck handshake, so the default bound (8) evicts
  // the excess history — and the metrics layer reports exactly how many
  // entries were dropped.
  support::MetricsRegistry metrics;
  TrackerConfig cfg;
  cfg.metrics = &metrics;
  Harness h(4, 2, cfg);
  for (int i = 0; i < 12; ++i) {
    h.send(0, 2, /*tag=*/100 + i);
    h.recv(2, 0, /*tag=*/100 + i);
  }
  EXPECT_EQ(h.of(2).current(2), 12u);
  EXPECT_EQ(metrics.counter("tracker/consumed_evictions").value(), 4u);
  EXPECT_EQ(metrics.counter("tracker/consumed_pinned").value(), 0u);
}

TEST(DistributedTracker, PendingProbePinsConsumedHistory) {
  // Regression for the eviction pinning fix: a wildcard probe posted before
  // heavy traffic blocks its process timeline, so the consuming receives
  // never finish their recvActiveAck handshake. The history entries they
  // produced stay pinned instead of being evicted — a late MatchInfo naming
  // the very first send must still resolve the probe. The old policy
  // (evict-oldest unconditionally) dropped that entry and wedged the probe.
  support::MetricsRegistry metrics;
  TrackerConfig cfg;
  cfg.metrics = &metrics;
  std::uint64_t evictions = 0;
  runProbeAfterConsumedSends(cfg, /*traffic=*/12, /*expectResolved=*/true,
                             &evictions);
  EXPECT_EQ(evictions, 0u);
  EXPECT_GT(metrics.counter("tracker/consumed_pinned").value(), 0u);
}

/// Records a lone tracker's outgoing recvActives instead of delivering
/// anything, so a test can hand the replies back in any order.
struct RecordingComms : Comms {
  std::vector<RecvActiveMsg> recvActives;
  void passSend(const PassSendMsg&) override {}
  void recvActive(ProcId, const RecvActiveMsg& msg) override {
    recvActives.push_back(msg);
  }
  void recvActiveAck(ProcId, const RecvActiveAckMsg&) override {}
  void collectiveReady(const CollectiveReadyMsg&) override {}
};

TEST(DistributedTracker, ReorderedAcksEvictTheOldestUnpinnedEntry) {
  // An entry of the consumed history is pinned exactly while its consuming
  // receive has no recvActiveAck. The tracker hosts receiver rank 1 alone;
  // the passSends of rank 0 and every ack are handed in by the test.
  support::MetricsRegistry metrics;
  TrackerConfig cfg;
  cfg.consumedHistory = 3;
  cfg.metrics = &metrics;
  RecordingComms out;
  MapCommView view(2);
  DistributedTracker t(1, 2, out, view, cfg);
  trace::LocalTs nextTs = 0;
  const auto newOp = [&](Kind kind, mpi::Rank peer, mpi::Tag tag) {
    Record r;
    r.id = OpId{1, nextTs++};
    r.kind = kind;
    r.peer = peer;
    r.tag = tag;
    r.request = static_cast<mpi::RequestId>(r.id.ts);
    t.onNewOp(r);
    return r.id;
  };
  trace::LocalTs nextSendTs = 0;
  std::vector<OpId> irecvs;
  const auto exchange = [&](mpi::Tag tag) {
    irecvs.push_back(newOp(Kind::kIrecv, 0, tag));
    PassSendMsg send;
    send.sendOp = OpId{0, nextSendTs++};
    send.destProc = 1;
    send.tag = tag;
    t.onPassSend(send);
  };
  const auto ack = [&](std::size_t irecv) {
    t.onRecvActiveAck(RecvActiveAckMsg{irecvs[irecv], false});
  };
  const auto history = [&] {
    std::vector<trace::LocalTs> sendTs;
    for (const OpId& send : t.consumedSends(0, 1, mpi::kCommWorld)) {
      sendTs.push_back(send.ts);
    }
    return sendTs;
  };
  using Ts = std::vector<trace::LocalTs>;
  const auto evictions = [&] {
    return metrics.counter("tracker/consumed_evictions").value();
  };
  const auto pinned = [&] {
    return metrics.counter("tracker/consumed_pinned").value();
  };

  // A wildcard probe blocks rank 1 while the Irecvs behind it consume
  // sends 0..4: no consumer is reached, so none is acked, and both
  // over-bound matches find every entry pinned.
  const OpId probe = newOp(Kind::kProbe, mpi::kAnySource, mpi::kAnyTag);
  for (mpi::Tag tag = 10; tag < 15; ++tag) exchange(tag);
  EXPECT_EQ(history(), (Ts{0, 1, 2, 3, 4}));
  EXPECT_EQ(evictions(), 0u);
  EXPECT_EQ(pinned(), 2u);

  // The late MatchInfo names send 0, which is still there because pinned.
  t.onMatchInfo(trace::MatchInfoEvent{probe, 0, 10});
  ASSERT_EQ(out.recvActives.size(), 1u);
  EXPECT_EQ(out.recvActives[0].sendOp, (OpId{0, 0}));
  EXPECT_EQ(out.recvActives[0].recvOp, probe);
  EXPECT_TRUE(out.recvActives[0].forProbe);

  // The probe completes and rank 1 runs past its Irecvs, which now ask
  // for their acks.
  t.onRecvActiveAck(RecvActiveAckMsg{probe, true});
  EXPECT_EQ(t.current(1), 6u);
  EXPECT_EQ(out.recvActives.size(), 6u);

  // Acks out of match order (Irecv 2 before Irecv 1), Irecv 2's twice.
  ack(2);
  ack(1);
  ack(2);
  // Each over-bound match evicts the oldest unpinned entry: send 1, then
  // send 2 — never the older, pinned send 0.
  exchange(15);
  EXPECT_EQ(history(), (Ts{0, 2, 3, 4, 5}));
  exchange(16);
  EXPECT_EQ(history(), (Ts{0, 3, 4, 5, 6}));
  // The duplicate ack unpinned nothing: every entry is pinned again.
  exchange(17);
  EXPECT_EQ(history(), (Ts{0, 3, 4, 5, 6, 7}));
  EXPECT_EQ(evictions(), 2u);
  EXPECT_EQ(pinned(), 3u);

  // Irecv 0's ack retires Irecvs 0-2 from the window; a retired consumer
  // is unpinned as well.
  ack(0);
  EXPECT_EQ(t.windowSize(1), 5u);
  exchange(18);
  EXPECT_EQ(history(), (Ts{3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(evictions(), 3u);
  EXPECT_EQ(pinned(), 3u);
}

TEST(DistributedTracker, MetricsTrackMaxWindow) {
  support::MetricsRegistry metrics;
  TrackerConfig cfg;
  cfg.metrics = &metrics;
  Harness h(4, 2, cfg);
  h.recv(2, 0, 1);
  h.recv(2, 0, 2);
  h.send(0, 2, 1);
  h.send(0, 2, 2);
  EXPECT_GE(metrics.gauge("tracker/max_window").max(), 2);
}

}  // namespace
}  // namespace wst::waitstate
