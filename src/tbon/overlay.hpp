// Generic simulated TBON overlay: channels + per-node sequential service.
//
// The overlay owns
//  * one flow-controlled channel from every application process to its
//    first-layer node (finite credits: a saturated tool node back-pressures
//    the application, the slowdown mechanism of paper Figures 9/12),
//  * intralayer channels between first-layer nodes (paper [13]) used by
//    passSend / recvActive / recvActiveAck and the consistent-state
//    ping-pong,
//  * tree channels (up and down) used by collective matching aggregation,
//    collectiveReady/collectiveAck, and the detection protocol.
//
// All channels are non-overtaking (sim::Channel guarantees it), which the
// distributed algorithm requires. Every node processes its merged inbox
// strictly sequentially with a configurable per-message service cost —
// tool nodes are single-threaded processes in the real system.
//
// Batching (optional, per link class): messages to the same destination
// node accumulate in a per-link staging buffer and ship as ONE channel
// message — an envelope — when a count/byte threshold is reached or a
// simulated flush interval elapses. The receiver unpacks the envelope in
// order; members after the first pay an amortized service cost, modeling
// the per-record savings of batched tracker transports. Messages the
// batchable predicate rejects (the consistent-state control plane) bypass
// staging, but FIRST flush anything staged on their link: a bypass message
// must not overtake earlier traffic, or the double ping-pong of the
// consistent-state protocol would no longer prove the channel drained.
//
// The overlay is a class template over the tool's message type so the TBON
// machinery stays independent of MUST-specific message sets.
//
// Parallel execution: every tool node gets a logical process of its own
// (engine.createLp()); application processes stay on the main LP. Channel
// latencies are declared to the engine as cross-LP lookahead, so distinct
// tool nodes execute concurrently — the engine pins each LP to a worker
// shard, and cross-shard sends ride the engine's SPSC rings. State is
// partitioned accordingly: NodeRuntime and a node's outgoing Link map are
// only touched by that node's LP; the few shared statistics use commutative
// relaxed atomics, cache-line padded so shards incrementing different link
// classes never bounce one another's lines.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/tracing.hpp"
#include "tbon/topology.hpp"

namespace wst::tbon {

enum class LinkClass : std::uint8_t {
  kAppToLeaf = 0,
  kIntralayer = 1,
  kUp = 2,
  kDown = 3,
  kSelf = 4,
};
inline constexpr std::size_t kLinkClassCount = 5;

/// Coalescing policy of one link class. A staged batch flushes when it
/// reaches maxMessages, when it reaches maxBytes (if nonzero), or
/// flushInterval simulated time after its first message was staged —
/// whichever happens first. flushInterval 0 still coalesces: the flush
/// event runs at the current simulated instant, after every send the
/// triggering handler performs.
struct BatchConfig {
  std::size_t maxMessages = 16;
  std::size_t maxBytes = 0;  // 0 disables the byte trigger
  sim::Duration flushInterval = 0;
  /// Service-cost multiplier for batch members after the first: the
  /// receiver pays cost(first) + amortizedCostFactor * cost(rest). Models
  /// amortized per-record handling once framing/dispatch is paid once.
  double amortizedCostFactor = 0.25;
};

/// Adversarial fault injection for fuzzing. When enabled, every envelope on
/// the intralayer and tree link classes travels through a reliable
/// per-directed-link stream: the sender assigns consecutive sequence
/// numbers and keeps unacknowledged copies, the receiver delivers strictly
/// in sequence order (buffering out-of-order arrivals), discards
/// duplicates, and returns cumulative acknowledgements. Beneath that
/// stream an injector may drop, duplicate, or delay individual *data-plane*
/// messages — those the faultable predicate accepts; control-plane traffic
/// (the consistent-state ping-pong and detection requests) is sequenced but
/// never perturbed, so it still cannot overtake earlier data on its link
/// and the double ping-pong's drained-channel proof is preserved.
///
/// Drops are fair-lossy: a given (link, seq) is dropped at most
/// maxDropsPerMsg times and maxRetransmits exceeds that bound, so at least
/// one copy of every message reaches the wire and each message is
/// delivered exactly once, in order. Retransmit timers are engine events,
/// so the simulation cannot reach quiescence while a loss is still being
/// healed — detection always observes a fully delivered protocol state.
struct FaultConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  /// Per-transmission probability of dropping a faultable message.
  double dropProb = 0.0;
  /// Probability of sending a faultable message twice.
  double dupProb = 0.0;
  /// Probability of holding a faultable message back before it enters the
  /// wire (later messages overtake it in flight; the receiver's reorder
  /// buffer restores order).
  double delayProb = 0.0;
  /// Maximum extra hold-back, drawn uniformly from [1, maxExtraDelay].
  sim::Duration maxExtraDelay = 0;
  std::uint32_t maxDropsPerMsg = 2;
  std::uint32_t maxRetransmits = 8;
  sim::Duration retransmitTimeout = 40'000;
};

/// Counters of what the fault layer actually did during a run. A given
/// seed reproduces these exactly (the per-sender RNGs are sharded by node,
/// so thread count does not change the schedule of decisions).
struct FaultStats {
  std::uint64_t dropsInjected = 0;
  std::uint64_t dupsInjected = 0;
  std::uint64_t delaysInjected = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicatesDiscarded = 0;
  std::uint64_t reordersBuffered = 0;
  std::uint64_t acksSent = 0;
};

struct OverlayConfig {
  sim::ChannelConfig appToLeaf{
      .latency = 2'000, .perByte = 0, .credits = 64};
  sim::ChannelConfig intralayer{.latency = 2'000, .perByte = 0, .credits = 0};
  sim::ChannelConfig treeUp{.latency = 2'000, .perByte = 0, .credits = 0};
  sim::ChannelConfig treeDown{.latency = 2'000, .perByte = 0, .credits = 0};
  /// Per-link-class coalescing; disengaged = every message ships alone.
  /// Supported on kIntralayer, kUp and kDown (classes without credits).
  std::array<std::optional<BatchConfig>, kLinkClassCount> batch{};
  /// Fault injection beneath the reliable link layer (fuzzing only).
  FaultConfig faults{};
};

template <typename M>
class Overlay {
 public:
  /// Invoked once per delivered message, on the receiving node, in arrival
  /// order. Runs inside an engine event.
  using Handler = std::function<void(NodeId self, M&&)>;
  /// Service cost the receiving node pays per message.
  using CostFn = std::function<sim::Duration(NodeId self, const M&)>;
  /// Optional message priority: urgent messages are processed before normal
  /// ones (per node; FIFO within each class). Implements the paper's §6
  /// proposal of preferring wait-state messages over the bulk event stream
  /// to shrink trace windows. Note that messages of the same channel whose
  /// relative order carries meaning must share a class.
  using UrgencyFn = std::function<bool(const M&)>;
  /// Whether a message may be coalesced on a batching link class. Messages
  /// rejected here ship immediately (after flushing their link's staged
  /// batch, preserving order). No predicate = everything batchable.
  using BatchableFn = std::function<bool(const M&)>;
  /// Optional per-delivery trace hook, invoked on the receiving node's LP
  /// just before the handler: (receiver, sending tool node, message).
  /// srcNode is -1 for application channels. The tool uses it to close
  /// cross-node flow arrows — the receiver otherwise never learns which
  /// node a tree/intralayer message came from.
  using DeliveryTraceFn =
      std::function<void(NodeId self, NodeId srcNode, const M&)>;

  Overlay(sim::Scheduler& engine, const Topology& topology,
          OverlayConfig config, CostFn cost)
      : engine_(engine),
        topology_(topology),
        config_(config),
        cost_(std::move(cost)),
        nodes_(static_cast<std::size_t>(topology.nodeCount())),
        links_(static_cast<std::size_t>(topology.nodeCount())),
        crashed_(static_cast<std::size_t>(topology.nodeCount()), 0) {
    liveParent_.reserve(static_cast<std::size_t>(topology.nodeCount()));
    for (NodeId n = 0; n < topology.nodeCount(); ++n) {
      liveParent_.push_back(topology.node(n).parent);
    }
    WST_ASSERT(!config_.batch[static_cast<std::size_t>(LinkClass::kAppToLeaf)],
               "batching is not supported on flow-controlled app channels");
    WST_ASSERT(!config_.batch[static_cast<std::size_t>(LinkClass::kSelf)],
               "batching a node's zero-latency self link is meaningless");
    WST_ASSERT(
        !batchConfig(LinkClass::kIntralayer) || config_.intralayer.credits == 0,
        "batched link classes must not use credit flow control");
    WST_ASSERT(!batchConfig(LinkClass::kUp) || config_.treeUp.credits == 0,
               "batched link classes must not use credit flow control");
    WST_ASSERT(!batchConfig(LinkClass::kDown) || config_.treeDown.credits == 0,
               "batched link classes must not use credit flow control");
    if (config_.faults.enabled) {
      // Retransmits resend on the raw channel and would double-consume
      // credits; the faulted classes are credit-free by design anyway.
      WST_ASSERT(config_.intralayer.credits == 0 &&
                     config_.treeUp.credits == 0 &&
                     config_.treeDown.credits == 0,
                 "fault injection requires credit-free overlay link classes");
      WST_ASSERT(config_.faults.maxRetransmits > config_.faults.maxDropsPerMsg,
                 "retransmit budget must exceed the per-message drop bound");
      WST_ASSERT(config_.faults.retransmitTimeout > 0,
                 "fault injection needs a positive retransmit timeout");
      recvStreams_.resize(static_cast<std::size_t>(topology.nodeCount()));
      faultRngs_.reserve(static_cast<std::size_t>(topology.nodeCount()));
      for (NodeId n = 0; n < topology.nodeCount(); ++n) {
        // One RNG shard per sending node, consumed only on that node's LP:
        // fault decisions are deterministic for a seed regardless of how
        // many worker threads drive the engine.
        faultRngs_.emplace_back(config_.faults.seed +
                                0x9E3779B97F4A7C15ULL *
                                    (static_cast<std::uint64_t>(n) + 1));
      }
    }
    // One logical process per tool node.
    nodeLps_.reserve(static_cast<std::size_t>(topology.nodeCount()));
    for (NodeId n = 0; n < topology.nodeCount(); ++n) {
      nodeLps_.push_back(engine_.createLp());
    }
    // Channel latencies bound the conservative lookahead. Only classes that
    // actually cross LPs in this topology are declared, and they must be
    // positive — zero-latency cross-LP links would leave the engine no safe
    // horizon.
    WST_ASSERT(config_.appToLeaf.latency > 0,
               "the engine requires positive app->leaf latency");
    engine_.noteCrossLpLatency(config_.appToLeaf.latency);
    if (topology.firstLayerCount() > 1) {
      WST_ASSERT(config_.intralayer.latency > 0,
                 "the engine requires positive intralayer latency");
      engine_.noteCrossLpLatency(config_.intralayer.latency);
    }
    if (topology.nodeCount() > 1) {
      WST_ASSERT(config_.treeUp.latency > 0 && config_.treeDown.latency > 0,
                 "the engine requires positive tree latencies");
      engine_.noteCrossLpLatency(config_.treeUp.latency);
      engine_.noteCrossLpLatency(config_.treeDown.latency);
    }
    // Application injection channels.
    appChannels_.reserve(static_cast<std::size_t>(topology.procCount()));
    for (trace::ProcId p = 0; p < topology.procCount(); ++p) {
      const NodeId leaf = topology.nodeOfProc(p);
      appChannels_.push_back(makeChannel(leaf, config_.appToLeaf,
                                         LinkClass::kAppToLeaf, sim::kMainLp));
    }
  }

  void setHandler(Handler handler) { handler_ = std::move(handler); }
  void setUrgency(UrgencyFn urgency) { urgency_ = std::move(urgency); }
  void setBatchable(BatchableFn batchable) {
    batchable_ = std::move(batchable);
  }
  /// Which messages the fault injector may drop/duplicate/delay (the
  /// wait-state data plane). Messages rejected here — or all messages, if
  /// no predicate is installed — are still sequenced by the reliable layer
  /// but never perturbed. Same shape as the batchable predicate.
  void setFaultable(BatchableFn faultable) {
    faultable_ = std::move(faultable);
  }
  /// Publish live instruments (batch occupancy, queue depth, service time)
  /// into a registry. Call before traffic flows.
  void setMetrics(support::MetricsRegistry* metrics) {
    if (metrics == nullptr) {
      batchOccupancy_ = nullptr;
      queueDepth_ = nullptr;
      serviceTime_ = nullptr;
      return;
    }
    batchOccupancy_ = &metrics->histogram("overlay/batch_occupancy");
    queueDepth_ = &metrics->histogram("overlay/queue_depth");
    serviceTime_ = &metrics->histogram("overlay/service_time_ns");
  }
  void setDeliveryTrace(DeliveryTraceFn traceFn) {
    deliveryTrace_ = std::move(traceFn);
  }
  /// Register one flight-recorder track per tool node (batch flushes record
  /// there; the tool shares the same tracks for protocol events). Call
  /// before traffic flows; pass nullptr to detach.
  void setTracer(support::Tracer* tracer) {
    nodeTracks_.assign(static_cast<std::size_t>(topology_.nodeCount()),
                       nullptr);
    if (tracer == nullptr) return;
    for (NodeId n = 0; n < topology_.nodeCount(); ++n) {
      nodeTracks_[static_cast<std::size_t>(n)] = tracer->track(
          support::TrackKind::kToolNode, n,
          support::format("node %d L%d", n, topology_.node(n).layer));
    }
  }

  const Topology& topology() const { return topology_; }
  sim::Scheduler& engine() { return engine_; }
  /// Logical process hosting a tool node.
  sim::LpId nodeLp(NodeId node) const {
    return nodeLps_[static_cast<std::size_t>(node)];
  }

  // --- Application-side injection (flow controlled) -------------------------

  bool canInject(trace::ProcId proc) const {
    return appChannels_[static_cast<std::size_t>(proc)]->hasCredit();
  }
  void onceInjectCredit(trace::ProcId proc, std::function<void()> cb) {
    appChannels_[static_cast<std::size_t>(proc)]->onceCredit(std::move(cb));
  }
  void inject(trace::ProcId proc, M msg, std::size_t bytes) {
    count(LinkClass::kAppToLeaf, bytes);
    countChannel(LinkClass::kAppToLeaf, bytes);
    appChannels_[static_cast<std::size_t>(proc)]->send(
        Envelope{std::move(msg), {}}, bytes);
  }
  /// Inject bypassing flow control (events that must never block the rank,
  /// e.g. MatchInfo piggybacked on an operation's completion).
  void injectUnthrottled(trace::ProcId proc, M msg, std::size_t bytes) {
    count(LinkClass::kAppToLeaf, bytes);
    countChannel(LinkClass::kAppToLeaf, bytes);
    appChannels_[static_cast<std::size_t>(proc)]->sendUnthrottled(
        Envelope{std::move(msg), {}}, bytes);
  }

  // --- Node-side sends -------------------------------------------------------

  void sendUp(NodeId from, M msg, std::size_t bytes) {
    // Routed by the *live* parent table: re-parenting (crash recovery)
    // redirects a node's up traffic without rebuilding the topology.
    const NodeId parent = liveParent_[static_cast<std::size_t>(from)];
    WST_ASSERT(parent >= 0, "sendUp from the root");
    count(LinkClass::kUp, bytes);
    sendOnLink(link(from, parent, config_.treeUp, LinkClass::kUp),
               std::move(msg), bytes);
  }

  void sendDown(NodeId from, NodeId child, M msg, std::size_t bytes) {
    count(LinkClass::kDown, bytes);
    sendOnLink(link(from, child, config_.treeDown, LinkClass::kDown),
               std::move(msg), bytes);
  }

  /// Send to a node in the same layer; from == to enqueues locally.
  void sendIntralayer(NodeId from, NodeId to, M msg, std::size_t bytes) {
    if (from == to) {
      count(LinkClass::kSelf, bytes);
      sendOnLink(link(from, to,
                      sim::ChannelConfig{.latency = 0, .perByte = 0,
                                         .credits = 0},
                      LinkClass::kSelf),
                 std::move(msg), bytes);
      return;
    }
    WST_ASSERT(topology_.node(from).layer == topology_.node(to).layer,
               "sendIntralayer requires same-layer nodes");
    count(LinkClass::kIntralayer, bytes);
    sendOnLink(link(from, to, config_.intralayer, LinkClass::kIntralayer),
               std::move(msg), bytes);
  }

  // --- Statistics ------------------------------------------------------------

  /// Logical messages handed to the overlay (batch members count one each).
  std::uint64_t messages(LinkClass c) const {
    return stats_[static_cast<std::size_t>(c)].messages.load(
        std::memory_order_relaxed);
  }
  std::uint64_t bytes(LinkClass c) const {
    return stats_[static_cast<std::size_t>(c)].bytes.load(
        std::memory_order_relaxed);
  }
  std::uint64_t totalMessages() const {
    std::uint64_t total = 0;
    for (const auto& s : stats_) {
      total += s.messages.load(std::memory_order_relaxed);
    }
    return total;
  }
  /// Physical channel messages: a flushed batch counts once. Equals
  /// messages(c) when the class does not batch.
  std::uint64_t channelMessages(LinkClass c) const {
    return channelStats_[static_cast<std::size_t>(c)].messages.load(
        std::memory_order_relaxed);
  }
  std::uint64_t channelBytes(LinkClass c) const {
    return channelStats_[static_cast<std::size_t>(c)].bytes.load(
        std::memory_order_relaxed);
  }
  std::uint64_t totalChannelMessages() const {
    std::uint64_t total = 0;
    for (const auto& s : channelStats_) {
      total += s.messages.load(std::memory_order_relaxed);
    }
    return total;
  }
  std::size_t maxQueueDepth() const {
    return maxQueueDepth_.load(std::memory_order_relaxed);
  }

  // --- Per-node health introspection (telemetry plane, DESIGN.md §16) --------
  // All of these read state owned by `node`'s LP, so a health-beat handler
  // executing on that LP samples them race-free and deterministically.

  /// Messages currently queued at the node (normal + urgent).
  std::size_t nodeQueueDepth(NodeId node) const {
    return nodes_[static_cast<std::size_t>(node)].depth();
  }
  /// Node-local queue-depth high-water mark.
  std::size_t nodeMaxQueueDepth(NodeId node) const {
    return nodes_[static_cast<std::size_t>(node)].maxDepth;
  }
  /// Unacknowledged reliable-stream envelopes held by the node's outgoing
  /// links (always 0 unless fault injection is enabled).
  std::size_t nodeRetransmitBacklog(NodeId node) const {
    std::size_t backlog = 0;
    for (const auto& [key, link] : links_[static_cast<std::size_t>(node)]) {
      backlog += link.inflight.size();
    }
    return backlog;
  }

  // --- Crash-stop faults + live-tree routing (DESIGN.md §17) -----------------

  /// Crash-stop a tool node. Call on the victim's own LP (schedule an event
  /// there): its pending queue is discarded, every future delivery to it is
  /// dropped, staged batches on its outgoing links are abandoned, and its
  /// reliable-stream retransmit state is cleared so timers become no-ops.
  /// Closures already scheduled by the node (a delayed duplicate, say) model
  /// messages that were on the wire at the instant of the crash.
  void crashNode(NodeId node) {
    crashed_[static_cast<std::size_t>(node)] = 1;
    NodeRuntime& rt = nodes_[static_cast<std::size_t>(node)];
    crashDropped_.fetch_add(rt.depth(), std::memory_order_relaxed);
    rt.queue.clear();
    rt.urgentQueue.clear();
    for (auto& [key, lnk] : links_[static_cast<std::size_t>(node)]) {
      ++lnk.flushGen;  // invalidate pending flush timers
      lnk.staged.clear();
      lnk.stagedBytes = 0;
      lnk.inflight.clear();  // retransmit timers find nothing and stop
    }
  }
  bool isCrashed(NodeId node) const {
    return crashed_[static_cast<std::size_t>(node)] != 0;
  }
  /// Messages dropped because their destination had crash-stopped.
  std::uint64_t crashDroppedMessages() const {
    return crashDropped_.load(std::memory_order_relaxed);
  }

  /// Current up-routing parent of a node (topology parent until re-parented).
  NodeId liveParent(NodeId node) const {
    return liveParent_[static_cast<std::size_t>(node)];
  }
  /// Redirect a node's up traffic to a new parent. Call on the node's own
  /// LP (the table entry is owned by the node, like its outgoing links).
  void setLiveParent(NodeId node, NodeId parent) {
    liveParent_[static_cast<std::size_t>(node)] = parent;
  }

  /// Snapshot of the fault layer's activity (all zero when disabled).
  FaultStats faultStats() const {
    FaultStats s;
    s.dropsInjected =
        faultCounters_.drops.load(std::memory_order_relaxed);
    s.dupsInjected = faultCounters_.dups.load(std::memory_order_relaxed);
    s.delaysInjected =
        faultCounters_.delays.load(std::memory_order_relaxed);
    s.retransmits =
        faultCounters_.retransmits.load(std::memory_order_relaxed);
    s.duplicatesDiscarded =
        faultCounters_.dupsDiscarded.load(std::memory_order_relaxed);
    s.reordersBuffered =
        faultCounters_.reorders.load(std::memory_order_relaxed);
    s.acksSent = faultCounters_.acks.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// Channel payload: one message, or a flushed batch (rest empty for
  /// singles — no allocation on the unbatched path). `seq` > 0 marks an
  /// envelope carried by the reliable stream of its directed link.
  struct Envelope {
    M first;
    std::vector<M> rest;
    std::uint64_t seq = 0;
  };
  using Chan = sim::Channel<Envelope>;

  /// Sender-side copy of an unacknowledged reliable envelope.
  struct Pending {
    Envelope env;
    std::size_t bytes = 0;
    std::uint32_t attempts = 0;
    std::uint32_t drops = 0;
  };

  /// A directed connection plus its staging buffer while batching.
  struct Link {
    std::unique_ptr<Chan> chan;
    LinkClass linkClass = LinkClass::kIntralayer;
    NodeId from = -1;  // sending node (flush instants record on its track)
    std::vector<M> staged;
    std::size_t stagedBytes = 0;
    std::uint64_t flushGen = 0;  // bumped per flush; invalidates timers
    // Reliable-stream sender state (fault injection only); lives on the
    // producer LP like the rest of the link.
    std::uint64_t nextSeq = 0;
    std::map<std::uint64_t, Pending> inflight;
  };

  /// Receiver-side reorder state of one incoming reliable stream, keyed by
  /// (sending node, link class); touched only on the receiving node's LP.
  struct RecvStream {
    std::uint64_t expected = 1;
    std::map<std::uint64_t, Envelope> buffered;
  };

  struct QueueEntry {
    M msg;
    Chan* origin;
    float costScale;
    NodeId srcNode;  // sending tool node; -1 for application channels
  };

  struct NodeRuntime {
    std::deque<QueueEntry> queue;
    std::deque<QueueEntry> urgentQueue;
    bool processing = false;
    sim::Time busyUntil = 0;
    std::size_t maxDepth = 0;

    std::size_t depth() const { return queue.size() + urgentQueue.size(); }
  };

  /// Updated from whichever LP sends; commutative relaxed adds keep the
  /// totals deterministic across worker counts. Cache-line aligned so the
  /// per-class entries of stats_/channelStats_ do not false-share between
  /// shards counting different link classes.
  struct alignas(support::kCacheLine) LinkStats {
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> bytes{0};
  };

  const std::optional<BatchConfig>& batchConfig(LinkClass linkClass) const {
    return config_.batch[static_cast<std::size_t>(linkClass)];
  }

  void count(LinkClass linkClass, std::size_t bytes) {
    auto& stats = stats_[static_cast<std::size_t>(linkClass)];
    stats.messages.fetch_add(1, std::memory_order_relaxed);
    stats.bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  void countChannel(LinkClass linkClass, std::size_t bytes) {
    auto& stats = channelStats_[static_cast<std::size_t>(linkClass)];
    stats.messages.fetch_add(1, std::memory_order_relaxed);
    stats.bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// `srcNode` is the sending tool node (-1 for application channels); the
  /// reliable layer acks toward it and the delivery trace hook receives it.
  std::unique_ptr<Chan> makeChannel(NodeId dest, sim::ChannelConfig cfg,
                                    LinkClass linkClass, sim::LpId producer,
                                    NodeId srcNode = -1) {
    auto channel = std::make_unique<Chan>(engine_, cfg);
    channel->setEndpoints(producer, nodeLps_[static_cast<std::size_t>(dest)]);
    // The deliver callback needs the channel pointer (to return its credit
    // after processing); install it after construction.
    channel->setDeliver(
        [this, dest, linkClass, srcNode, chan = channel.get()](
            Envelope&& env) {
          if (env.seq == 0) {
            deliver(dest, std::move(env), chan, linkClass, srcNode);
          } else {
            reliableDeliver(dest, std::move(env), chan, linkClass, srcNode);
          }
        });
    return channel;
  }

  Link& link(NodeId from, NodeId to, sim::ChannelConfig cfg,
             LinkClass linkClass) {
    // Outgoing links are sharded by sending node: only `from`'s LP ever
    // touches its shard, so lazy creation needs no locking.
    auto& shard = links_[static_cast<std::size_t>(from)];
    const std::uint32_t key =
        (static_cast<std::uint32_t>(to) << 3) |
        static_cast<std::uint32_t>(linkClass);
    auto it = shard.find(key);
    if (it == shard.end()) {
      Link lnk;
      lnk.chan = makeChannel(to, cfg, linkClass,
                             nodeLps_[static_cast<std::size_t>(from)], from);
      lnk.linkClass = linkClass;
      lnk.from = from;
      it = shard.emplace(key, std::move(lnk)).first;
    }
    return it->second;
  }

  void sendOnLink(Link& lnk, M msg, std::size_t bytes) {
    const auto& bc = batchConfig(lnk.linkClass);
    if (!bc || (batchable_ && !batchable_(msg))) {
      // Unbatched (or bypass) message. Flush staged traffic first so this
      // message cannot overtake logically earlier ones on the same link —
      // the consistent-state protocol depends on that order.
      flushLink(lnk);
      ship(lnk, Envelope{std::move(msg), {}}, bytes);
      return;
    }
    if (lnk.staged.empty()) {
      // Arm the flush timer when the batch opens. The generation check
      // makes the timer a no-op if a threshold (or a bypass send) flushed
      // the batch earlier; a later batch arms its own timer. sendOnLink
      // always runs on the link's producer LP, so the timer is pinned there
      // too and the staged buffer stays single-LP.
      engine_.scheduleOn(
          lnk.chan->producerLp(), engine_.now() + bc->flushInterval,
          [this, &lnk, gen = lnk.flushGen] {
            if (lnk.flushGen == gen) flushLink(lnk);
          });
    }
    lnk.staged.push_back(std::move(msg));
    lnk.stagedBytes += bytes;
    if (lnk.staged.size() >= bc->maxMessages ||
        (bc->maxBytes != 0 && lnk.stagedBytes >= bc->maxBytes)) {
      flushLink(lnk);
    }
  }

  void flushLink(Link& lnk) {
    ++lnk.flushGen;
    if (lnk.staged.empty()) return;
    if (batchOccupancy_ != nullptr) batchOccupancy_->record(lnk.staged.size());
    if (support::TraceTrack* track = nodeTrack(lnk.from)) {
      track->instant("batchFlush", "overlay", "count",
                     static_cast<std::int64_t>(lnk.staged.size()), "bytes",
                     static_cast<std::int64_t>(lnk.stagedBytes));
    }
    Envelope env{std::move(lnk.staged.front()), {}};
    env.rest.reserve(lnk.staged.size() - 1);
    for (std::size_t i = 1; i < lnk.staged.size(); ++i) {
      env.rest.push_back(std::move(lnk.staged[i]));
    }
    ship(lnk, std::move(env), lnk.stagedBytes);
    lnk.staged.clear();
    lnk.stagedBytes = 0;
  }

  // --- Reliable link layer (fault injection) ---------------------------------

  bool faultsOn(LinkClass linkClass) const {
    return config_.faults.enabled &&
           (linkClass == LinkClass::kIntralayer ||
            linkClass == LinkClass::kUp || linkClass == LinkClass::kDown);
  }

  /// The injector may only perturb data-plane payloads. Batched envelopes
  /// contain only batchable (data-plane) members, so they qualify as a
  /// whole; singles are tested against the faultable predicate.
  bool faultablePayload(const Envelope& env) const {
    if (!faultable_) return false;
    if (!env.rest.empty()) return true;
    return faultable_(env.first);
  }

  /// Final hop onto the channel: sequences the envelope through the
  /// reliable stream when faults apply to this link class.
  void ship(Link& lnk, Envelope&& env, std::size_t bytes) {
    countChannel(lnk.linkClass, bytes);
    if (!faultsOn(lnk.linkClass)) {
      lnk.chan->send(std::move(env), bytes);
      return;
    }
    env.seq = ++lnk.nextSeq;
    const std::uint64_t seq = env.seq;
    lnk.inflight.emplace(seq, Pending{std::move(env), bytes, 0, 0});
    transmit(lnk, seq);
  }

  /// One transmission attempt of an unacknowledged envelope: the injector
  /// may drop it (bounded per message), duplicate it, or hold it back so
  /// later sequence numbers overtake it on the wire. Always runs on the
  /// link's producer LP. Every attempt arms a retransmit timer (up to the
  /// budget); the timer is a no-op once the ack has retired the entry, and
  /// its presence keeps the engine from quiescing mid-heal.
  void transmit(Link& lnk, std::uint64_t seq) {
    auto it = lnk.inflight.find(seq);
    WST_ASSERT(it != lnk.inflight.end(), "transmit of an acked seq");
    Pending& p = it->second;
    ++p.attempts;
    const FaultConfig& fc = config_.faults;
    support::Rng& rng = faultRngs_[static_cast<std::size_t>(lnk.from)];
    const bool perturbable = faultablePayload(p.env);
    if (perturbable && p.drops < fc.maxDropsPerMsg &&
        rng.chance(fc.dropProb)) {
      ++p.drops;
      faultCounters_.drops.fetch_add(1, std::memory_order_relaxed);
    } else {
      sim::Duration hold = 0;
      if (perturbable && fc.maxExtraDelay > 0 && rng.chance(fc.delayProb)) {
        hold = 1 + static_cast<sim::Duration>(rng.below(
                       static_cast<std::uint64_t>(fc.maxExtraDelay)));
        faultCounters_.delays.fetch_add(1, std::memory_order_relaxed);
      }
      const int copies = (perturbable && rng.chance(fc.dupProb)) ? 2 : 1;
      if (copies == 2) {
        faultCounters_.dups.fetch_add(1, std::memory_order_relaxed);
      }
      for (int i = 0; i < copies; ++i) {
        if (hold > 0) {
          engine_.scheduleOn(lnk.chan->producerLp(), engine_.now() + hold,
                             [&lnk, env = p.env, bytes = p.bytes]() mutable {
                               lnk.chan->send(std::move(env), bytes);
                             });
        } else {
          lnk.chan->send(Envelope{p.env}, p.bytes);
        }
      }
    }
    if (p.attempts < fc.maxRetransmits) {
      engine_.scheduleOn(lnk.chan->producerLp(),
                         engine_.now() + fc.retransmitTimeout,
                         [this, &lnk, seq] {
                           if (lnk.inflight.find(seq) == lnk.inflight.end()) {
                             return;  // acknowledged in the meantime
                           }
                           faultCounters_.retransmits.fetch_add(
                               1, std::memory_order_relaxed);
                           transmit(lnk, seq);
                         });
    }
  }

  /// Receiver side of the reliable stream: strict in-order release into
  /// the normal delivery path, duplicate suppression, cumulative acks.
  void reliableDeliver(NodeId dest, Envelope&& env, Chan* origin,
                       LinkClass linkClass, NodeId srcNode) {
    if (crashed_[static_cast<std::size_t>(dest)] != 0) {
      // No ack either: the sender's retransmits run out their bounded
      // budget against the dead node and stop.
      crashDropped_.fetch_add(1 + env.rest.size(), std::memory_order_relaxed);
      return;
    }
    const std::uint32_t streamKey =
        (static_cast<std::uint32_t>(srcNode) << 3) |
        static_cast<std::uint32_t>(linkClass);
    RecvStream& rs =
        recvStreams_[static_cast<std::size_t>(dest)][streamKey];
    if (env.seq < rs.expected || rs.buffered.count(env.seq) != 0) {
      faultCounters_.dupsDiscarded.fetch_add(1, std::memory_order_relaxed);
      sendAck(dest, origin, srcNode, linkClass, rs.expected - 1);
      return;
    }
    if (env.seq > rs.expected) {
      faultCounters_.reorders.fetch_add(1, std::memory_order_relaxed);
      rs.buffered.emplace(env.seq, std::move(env));
      return;
    }
    deliver(dest, std::move(env), origin, linkClass, srcNode);
    ++rs.expected;
    while (!rs.buffered.empty() &&
           rs.buffered.begin()->first == rs.expected) {
      Envelope next = std::move(rs.buffered.begin()->second);
      rs.buffered.erase(rs.buffered.begin());
      deliver(dest, std::move(next), origin, linkClass, srcNode);
      ++rs.expected;
    }
    sendAck(dest, origin, srcNode, linkClass, rs.expected - 1);
  }

  /// Acks travel outside the message plane: a closure scheduled onto the
  /// sender's LP one link latency from now (the latency is declared as
  /// cross-LP lookahead, so this is parallel-safe). Acks themselves are
  /// never faulted — retransmits already cover the lost-ack appearance.
  void sendAck(NodeId dest, Chan* origin, NodeId srcNode,
               LinkClass linkClass, std::uint64_t upTo) {
    faultCounters_.acks.fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t linkKey =
        (static_cast<std::uint32_t>(dest) << 3) |
        static_cast<std::uint32_t>(linkClass);
    engine_.scheduleOn(
        origin->producerLp(), engine_.now() + origin->config().latency,
        [this, srcNode, linkKey, upTo] {
          auto& shard = links_[static_cast<std::size_t>(srcNode)];
          const auto it = shard.find(linkKey);
          if (it == shard.end()) return;
          auto& inflight = it->second.inflight;
          while (!inflight.empty() && inflight.begin()->first <= upTo) {
            inflight.erase(inflight.begin());
          }
        });
  }

  void deliver(NodeId dest, Envelope&& env, Chan* origin,
               LinkClass linkClass, NodeId srcNode) {
    if (crashed_[static_cast<std::size_t>(dest)] != 0) {
      // A crashed node silently swallows its wire. Crash-stop is only
      // supported for inner tree nodes, whose channels are credit-free, so
      // there is no credit to return here.
      crashDropped_.fetch_add(1 + env.rest.size(), std::memory_order_relaxed);
      return;
    }
    NodeRuntime& node = nodes_[static_cast<std::size_t>(dest)];
    float restScale = 1.0F;
    if (!env.rest.empty()) {
      const auto& bc = batchConfig(linkClass);
      WST_ASSERT(bc.has_value(), "multi-message envelope on unbatched class");
      restScale = static_cast<float>(bc->amortizedCostFactor);
    }
    enqueue(node, std::move(env.first), origin, 1.0F, srcNode);
    for (M& msg : env.rest) {
      enqueue(node, std::move(msg), origin, restScale, srcNode);
    }
    node.maxDepth = std::max(node.maxDepth, node.depth());
    std::size_t depth = node.depth();
    std::size_t cur = maxQueueDepth_.load(std::memory_order_relaxed);
    while (depth > cur && !maxQueueDepth_.compare_exchange_weak(
                              cur, depth, std::memory_order_relaxed)) {
    }
    if (queueDepth_ != nullptr) queueDepth_->record(node.depth());
    if (!node.processing) {
      node.processing = true;
      const sim::Time startAt = std::max(engine_.now(), node.busyUntil);
      engine_.scheduleAt(startAt, [this, dest] { processNext(dest); });
    }
  }

  void enqueue(NodeRuntime& node, M&& msg, Chan* origin, float costScale,
               NodeId srcNode) {
    if (urgency_ && urgency_(msg)) {
      node.urgentQueue.push_back(
          QueueEntry{std::move(msg), origin, costScale, srcNode});
    } else {
      node.queue.push_back(
          QueueEntry{std::move(msg), origin, costScale, srcNode});
    }
  }

  void processNext(NodeId dest) {
    NodeRuntime& node = nodes_[static_cast<std::size_t>(dest)];
    if (crashed_[static_cast<std::size_t>(dest)] != 0) {
      node.queue.clear();
      node.urgentQueue.clear();
      node.processing = false;
      return;
    }
    WST_ASSERT(node.depth() > 0, "processNext on empty queue");
    auto& source = node.urgentQueue.empty() ? node.queue : node.urgentQueue;
    QueueEntry entry = std::move(source.front());
    source.pop_front();
    const sim::Duration base = cost_ ? cost_(dest, entry.msg) : 0;
    const sim::Duration cost = static_cast<sim::Duration>(
        static_cast<double>(base) * static_cast<double>(entry.costScale));
    if (serviceTime_ != nullptr) {
      serviceTime_->record(static_cast<std::uint64_t>(cost));
    }
    if (deliveryTrace_) deliveryTrace_(dest, entry.srcNode, entry.msg);
    handler_(dest, std::move(entry.msg));
    node.busyUntil = engine_.now() + cost;
    // The credit models a finite receive buffer slot: it frees once the
    // node has *processed* the message AND the acknowledgement has traveled
    // back over the link. Credit state lives on the producer's LP, and the
    // return trip supplies the cross-LP lookahead.
    if (entry.origin != nullptr && entry.origin->config().credits != 0) {
      engine_.scheduleOn(entry.origin->producerLp(),
                         node.busyUntil + entry.origin->config().latency,
                         [origin = entry.origin] { origin->returnCredit(); });
    }
    if (node.depth() > 0) {
      engine_.scheduleAt(node.busyUntil, [this, dest] { processNext(dest); });
    } else {
      node.processing = false;
    }
  }

  sim::Scheduler& engine_;
  const Topology& topology_;
  OverlayConfig config_;
  CostFn cost_;
  Handler handler_;
  UrgencyFn urgency_;
  BatchableFn batchable_;
  BatchableFn faultable_;
  DeliveryTraceFn deliveryTrace_;

  std::vector<NodeRuntime> nodes_;
  std::vector<sim::LpId> nodeLps_;
  std::vector<std::unique_ptr<Chan>> appChannels_;
  // Outgoing links sharded by sending node, keyed by (to, class). Link
  // references must stay stable across insertions (flush timers hold
  // them): unordered_map guarantees that for mapped values.
  std::vector<std::unordered_map<std::uint32_t, Link>> links_;
  /// Crash-stop flags (entry written once, on the victim's LP; read on the
  /// paths that target the victim, which run on the same LP) and the live
  /// up-routing parent table (each entry owned by its node's LP).
  std::vector<char> crashed_;
  std::vector<NodeId> liveParent_;
  std::atomic<std::uint64_t> crashDropped_{0};
  /// Reliable-stream receiver state, sharded by receiving node (only that
  /// node's LP touches its shard). Empty unless faults are enabled.
  std::vector<std::unordered_map<std::uint32_t, RecvStream>> recvStreams_;
  /// Fault-decision RNGs, sharded by sending node.
  std::vector<support::Rng> faultRngs_;
  /// Relaxed atomics: commutative adds from any LP, deterministic totals.
  /// Aligned off neighbouring members; the counters themselves are updated
  /// rarely enough (fault events) that internal padding is not worth it.
  struct alignas(support::kCacheLine) {
    std::atomic<std::uint64_t> drops{0};
    std::atomic<std::uint64_t> dups{0};
    std::atomic<std::uint64_t> delays{0};
    std::atomic<std::uint64_t> retransmits{0};
    std::atomic<std::uint64_t> dupsDiscarded{0};
    std::atomic<std::uint64_t> reorders{0};
    std::atomic<std::uint64_t> acks{0};
  } faultCounters_;
  LinkStats stats_[kLinkClassCount]{};
  LinkStats channelStats_[kLinkClassCount]{};
  std::atomic<std::size_t> maxQueueDepth_{0};

  support::Histogram* batchOccupancy_ = nullptr;
  support::Histogram* queueDepth_ = nullptr;
  support::Histogram* serviceTime_ = nullptr;
  std::vector<support::TraceTrack*> nodeTracks_;  // empty or all-null = off

  support::TraceTrack* nodeTrack(NodeId node) const {
    if (nodeTracks_.empty() || node < 0) return nullptr;
    return nodeTracks_[static_cast<std::size_t>(node)];
  }
};

}  // namespace wst::tbon
