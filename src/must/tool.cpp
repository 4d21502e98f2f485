#include "must/tool.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "support/assert.hpp"
#include "support/strings.hpp"
#include "support/trace_export.hpp"

namespace wst::must {

using tbon::NodeId;
using trace::ProcId;

namespace {
template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

/// Maximum changed-process fraction for which the root warm-starts the
/// release fixpoint from the previous round's released set; above it the
/// check falls back to a full cold run.
constexpr double kWarmStartThreshold = 0.5;
/// Timeline points kept before the ring folds into its base snapshot.
constexpr std::size_t kTimelineCapacity = 512;
/// A node is stale when the root saw no health row from it for more than
/// kHealthStaleFactor * healthBeatInterval virtual ns.
constexpr double kHealthStaleFactor = 2.0;

std::uint64_t wallNs(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Metric name of a ToolMsg alternative (keep in sync with the variant).
const char* toolMsgKindName(std::size_t index) {
  static constexpr const char* kNames[] = {
      "new_op",           "match_info",     "pass_send",
      "recv_active",      "recv_active_ack", "collective_ready",
      "collective_ack",   "request_consistent_state",
      "ack_consistent_state", "ping",       "pong",
      "request_waits",    "wait_info",      "condensed_wait_info",
      "deadlock_detail_request", "deadlock_detail", "phase_resync",
      "health_beat",      "reparent",       "adopt",
      "adopt_ack",        "re_register",
  };
  static_assert(std::variant_size_v<ToolMsg> ==
                sizeof(kNames) / sizeof(kNames[0]));
  return kNames[index];
}

const char* linkClassName(tbon::LinkClass c) {
  switch (c) {
    case tbon::LinkClass::kAppToLeaf: return "app_to_leaf";
    case tbon::LinkClass::kIntralayer: return "intralayer";
    case tbon::LinkClass::kUp: return "up";
    case tbon::LinkClass::kDown: return "down";
    case tbon::LinkClass::kSelf: return "self";
  }
  return "unknown";
}

/// Modeled wire size of one process's conditions inside a WaitInfoMsg
/// (mirrors the conditions term of modeledSize(WaitInfoMsg)).
std::size_t conditionBytes(const wfg::NodeConditions& node) {
  std::size_t bytes = 16;
  for (const auto& clause : node.clauses) {
    bytes += 8 + 4 * clause.targets.size();
  }
  return bytes;
}

// Flow correlation ids for the five wait-state message kinds: the top byte
// is the kind, the rest identifies the message instance. Point-to-point
// handshakes are keyed by the operation they concern (each send op gets one
// passSend, each recv op one recvActive and one recvActiveAck); collective
// ready/ack flows are per hop, keyed by (comm, wave, hop endpoint) — the
// source node for upward ready hops, the destination for downward ack hops.
constexpr std::uint64_t kPassSendFlow = 1;
constexpr std::uint64_t kRecvActiveFlow = 2;
constexpr std::uint64_t kRecvActiveAckFlow = 3;
constexpr std::uint64_t kCollReadyFlow = 4;
constexpr std::uint64_t kCollAckFlow = 5;

std::uint64_t packOpFlow(std::uint64_t kind, trace::OpId op) {
  return (kind << 56) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(op.proc))
          << 32) |
         static_cast<std::uint32_t>(op.ts);
}

std::uint64_t packCollFlow(std::uint64_t kind, mpi::CommId comm,
                           std::uint32_t wave, NodeId node) {
  return (kind << 56) |
         ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(comm)) &
           0xFFFF) << 40) |
         (static_cast<std::uint64_t>(wave & 0xFFFFF) << 20) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) &
          0xFFFFF);
}
}  // namespace

/// Per-TBON-node runtime state. First-layer nodes own a tracker; inner nodes
/// aggregate collectiveReady counts; every node participates in the
/// consistent-state protocol bookkeeping relevant to its role.
struct DistributedTool::NodeState : waitstate::Comms {
  DistributedTool& tool;
  NodeId id;
  /// This node's flight-recorder track (null when tracing is off).
  support::TraceTrack* trace = nullptr;
  std::unique_ptr<waitstate::DistributedTracker> tracker;  // first layer only

  // Inner-node collectiveReady aggregation, keyed by the contributing child
  // so a replayed contribution (crash recovery) replaces instead of adding.
  // Entries live until the wave's ack arrives — an orphan's replay can then
  // re-complete the subtree and re-forward (idempotent at every level).
  std::unordered_map<std::pair<mpi::CommId, std::uint32_t>,
                     std::map<NodeId, std::uint32_t>, CommWaveHash>
      innerContrib;

  // Live-tree view of this node (crash recovery, DESIGN.md §17): children
  // currently routing through it (topology children until adoptions change
  // it) and crashed ex-children whose stray contributions must be ignored.
  std::vector<NodeId> liveChildren;
  std::set<NodeId> deadChildren;

  // Unacknowledged collective contributions, replayed after a re-parenting
  // (ordered keys: the replay order must be deterministic). pendingColl
  // holds a first-layer tracker's own sends, forwardedColl an inner node's
  // forwarded subtree aggregates.
  std::map<std::pair<mpi::CommId, std::uint32_t>, waitstate::CollectiveReadyMsg>
      pendingColl;
  std::map<std::pair<mpi::CommId, std::uint32_t>, waitstate::CollectiveReadyMsg>
      forwardedColl;

  // Consistent-state protocol (first layer).
  std::uint32_t epoch = 0;
  std::int32_t outstandingPeers = 0;

  // Incremental gather (first layer): epoch of this node's last wait-info
  // reply and the modeled size of each hosted process's last reported
  // conditions (drives the bytes-saved accounting for elided processes).
  std::uint32_t lastReplyEpoch = 0;
  std::vector<std::size_t> lastCondBytes;

  // Inner-node wait-info aggregation: one merged delta per child subtree,
  // forwarded once every child reported.
  WaitInfoMsg pendingWaitInfo;
  std::uint32_t waitInfoChildren = 0;
  std::uint64_t waitInfoChildBytes = 0;

  // Inner-node condensation aggregation (hierarchical check): collect one
  // child condensation per child, then merge-and-resolve at this level and
  // forward a single condensation of the whole subtree.
  std::vector<wfg::Condensation> pendingCond;
  std::vector<ActiveSendInfo> pendingCondSends;
  std::vector<ActiveWildcardInfo> pendingCondWildcards;
  std::uint32_t pendingCondFinished = 0;
  std::uint32_t condChildren = 0;
  std::uint32_t condEpoch = 0;

  // Inner-node deadlock-detail aggregation (one reply per child).
  DeadlockDetailMsg pendingDetail;
  std::uint32_t detailChildren = 0;

  // Health-beat bookkeeping (telemetry plane): all counters are only ever
  // touched on this node's LP, so a beat row sampling them is deterministic.
  std::uint64_t beatSeq = 0;        // beats this node sent
  std::uint64_t deliveredMsgs = 0;  // tool messages handled by this node
  std::uint64_t resyncedOps = 0;    // ops fast-forwarded by PhaseResyncMsg
  std::uint64_t lastCondNodes = 0;  // boundary size of the last condensation

  /// Cached per-communicator contribution expectation of an inner node: the
  /// group members hosted under its *live* children's process spans.
  /// Communicator groups are immutable, so the cache only invalidates when
  /// an adoption changes liveChildren. Equals the node's own hosted span
  /// while the live tree matches the topology.
  std::unordered_map<mpi::CommId, std::uint32_t> hostedCounts;

  std::uint32_t expectedInComm(mpi::CommId comm) {
    auto it = hostedCounts.find(comm);
    if (it == hostedCounts.end()) {
      std::uint32_t hosted = 0;
      for (const NodeId child : liveChildren) {
        const tbon::NodeInfo& ci = tool.topology_.node(child);
        for (const ProcId member : tool.commView_.group(comm)) {
          if (member >= ci.procLo && member < ci.procHi) ++hosted;
        }
      }
      it = hostedCounts.emplace(comm, hosted).first;
    }
    return it->second;
  }

  NodeState(DistributedTool& t, NodeId nodeId) : tool(t), id(nodeId) {
    trace = tool.nodeTrack(nodeId);
    const tbon::NodeInfo& info = tool.topology_.node(nodeId);
    liveChildren = info.children;
    if (tool.topology_.isFirstLayer(nodeId)) {
      waitstate::TrackerConfig cfg;
      cfg.blockingModel = tool.config_.blockingModel;
      cfg.eagerThreshold = tool.runtime_.config().eagerThreshold;
      cfg.consumedHistory = tool.config_.consumedHistory;
      cfg.metrics = &tool.metrics_;
      cfg.trace = trace;
      tracker = std::make_unique<waitstate::DistributedTracker>(
          info.procLo, info.procHi, *this, tool.commView_, cfg);
      lastCondBytes.assign(
          static_cast<std::size_t>(info.procHi - info.procLo), 0);
    }
  }

  // waitstate::Comms — route by destination process / towards the root.
  void passSend(const waitstate::PassSendMsg& msg) override {
    const NodeId dest = tool.topology_.nodeOfProc(msg.destProc);
    if (trace) {
      trace->flowBegin("passSend", "waitstate",
                       packOpFlow(kPassSendFlow, msg.sendOp));
    }
    tool.overlay_->sendIntralayer(id, dest, ToolMsg{msg},
                                  waitstate::kPassSendBytes);
  }
  void recvActive(ProcId sendProc,
                  const waitstate::RecvActiveMsg& msg) override {
    const NodeId dest = tool.topology_.nodeOfProc(sendProc);
    if (trace) {
      trace->flowBegin("recvActive", "waitstate",
                       packOpFlow(kRecvActiveFlow, msg.recvOp));
    }
    tool.overlay_->sendIntralayer(id, dest, ToolMsg{msg},
                                  waitstate::kRecvActiveBytes);
  }
  void recvActiveAck(ProcId recvProc,
                     const waitstate::RecvActiveAckMsg& msg) override {
    const NodeId dest = tool.topology_.nodeOfProc(recvProc);
    if (trace) {
      trace->flowBegin("recvActiveAck", "waitstate",
                       packOpFlow(kRecvActiveAckFlow, msg.recvOp));
    }
    tool.overlay_->sendIntralayer(id, dest, ToolMsg{msg},
                                  waitstate::kRecvActiveAckBytes);
  }
  void collectiveReady(const waitstate::CollectiveReadyMsg& msg) override {
    if (trace) {
      trace->flowBegin("collectiveReady", "waitstate",
                       packCollFlow(kCollReadyFlow, msg.comm, msg.wave, id));
    }
    waitstate::CollectiveReadyMsg stamped = msg;
    stamped.originNode = id;
    // Remember the contribution until its ack: a re-parented node re-sends
    // everything unacknowledged over the new path (DESIGN.md §17).
    pendingColl[{msg.comm, msg.wave}] = stamped;
    if (tool.topology_.isRoot(id)) {
      // Single-node tree: keep queue semantics with a self-send.
      tool.overlay_->sendIntralayer(id, id, ToolMsg{stamped},
                                    waitstate::kCollectiveReadyBytes);
    } else {
      tool.overlay_->sendUp(id, ToolMsg{stamped},
                            waitstate::kCollectiveReadyBytes);
    }
  }
};

DistributedTool::DistributedTool(sim::Scheduler& engine, mpi::Runtime& runtime,
                                 ToolConfig config)
    : engine_(engine),
      runtime_(runtime),
      config_(config),
      commView_(runtime),
      topology_(runtime.procCount(), config.fanIn) {
  if (config_.batchWaitState) {
    config_.overlay.batch[static_cast<std::size_t>(
        tbon::LinkClass::kIntralayer)] = config_.waitStateBatch;
    config_.overlay.batch[static_cast<std::size_t>(tbon::LinkClass::kUp)] =
        config_.waitStateBatch;
  }
  for (std::size_t k = 0; k < msgCounters_.size(); ++k) {
    msgCounters_[k] = &metrics_.counter(
        std::string("tool/delivered/") + toolMsgKindName(k));
  }
  overlay_ = std::make_unique<tbon::Overlay<ToolMsg>>(
      engine_, topology_, config_.overlay,
      [this](NodeId node, const ToolMsg& msg) {
        return messageCost(node, msg);
      });
  overlay_->setMetrics(&metrics_);
  if (config_.tracer != nullptr && config_.tracer->enabled()) {
    // The overlay registers (create-or-get) the same per-node tracks; cache
    // the handles before the NodeState loop below so trackers get theirs.
    overlay_->setTracer(config_.tracer);
    nodeTracks_.resize(static_cast<std::size_t>(topology_.nodeCount()));
    for (NodeId n = 0; n < topology_.nodeCount(); ++n) {
      nodeTracks_[static_cast<std::size_t>(n)] = config_.tracer->track(
          support::TrackKind::kToolNode, n,
          support::format("node %d L%d", n, topology_.node(n).layer));
    }
    rootTrack_ = nodeTrack(topology_.root());
    overlay_->setDeliveryTrace(
        [this](NodeId self, NodeId srcNode, const ToolMsg& msg) {
          traceDelivery(self, srcNode, msg);
        });
  }
  // Only the wait-state data plane coalesces; every control message of the
  // consistent-state protocol ships immediately (flushing staged traffic on
  // its link so it cannot overtake earlier messages).
  overlay_->setBatchable([](const ToolMsg& msg) {
    return std::holds_alternative<waitstate::PassSendMsg>(msg) ||
           std::holds_alternative<waitstate::RecvActiveMsg>(msg) ||
           std::holds_alternative<waitstate::RecvActiveAckMsg>(msg) ||
           std::holds_alternative<waitstate::CollectiveReadyMsg>(msg);
  });
  // The fault injector may perturb exactly the five wait-state message
  // kinds; the consistent-state and detection control plane rides the same
  // reliable streams untouched (see tbon::FaultConfig).
  overlay_->setFaultable([](const ToolMsg& msg) {
    return std::holds_alternative<waitstate::PassSendMsg>(msg) ||
           std::holds_alternative<waitstate::RecvActiveMsg>(msg) ||
           std::holds_alternative<waitstate::RecvActiveAckMsg>(msg) ||
           std::holds_alternative<waitstate::CollectiveReadyMsg>(msg) ||
           std::holds_alternative<waitstate::CollectiveAckMsg>(msg);
  });
  overlay_->setHandler(
      [this](NodeId node, ToolMsg&& msg) { handleMessage(node, std::move(msg)); });
  if (config_.prioritizeWaitState) {
    overlay_->setUrgency([](const ToolMsg& msg) {
      return std::holds_alternative<waitstate::PassSendMsg>(msg) ||
             std::holds_alternative<waitstate::RecvActiveMsg>(msg) ||
             std::holds_alternative<waitstate::RecvActiveAckMsg>(msg) ||
             std::holds_alternative<waitstate::CollectiveReadyMsg>(msg) ||
             std::holds_alternative<waitstate::CollectiveAckMsg>(msg);
    });
  }
  nodes_.reserve(static_cast<std::size_t>(topology_.nodeCount()));
  for (NodeId n = 0; n < topology_.nodeCount(); ++n) {
    nodes_.push_back(std::make_unique<NodeState>(*this, n));
  }
  runtime_.setInterposer(this);

  // Root's mirror of the live tree; diverges from the topology only when a
  // recovery re-parents a crashed node's children.
  rootLiveParent_.reserve(static_cast<std::size_t>(topology_.nodeCount()));
  rootLiveChildren_.reserve(static_cast<std::size_t>(topology_.nodeCount()));
  for (NodeId n = 0; n < topology_.nodeCount(); ++n) {
    rootLiveParent_.push_back(topology_.node(n).parent);
    rootLiveChildren_.push_back(topology_.node(n).children);
  }
  if (config_.healthBeatInterval > 0 || !config_.crashPlan.empty()) {
    healthFlapSuppressed_ = &metrics_.counter("health/flap_suppressed");
    healthReparentRuns_ = &metrics_.counter("health/reparent_runs");
    healthReackWaves_ = &metrics_.counter("health/reack_waves");
  }

  incremental_.emplace(runtime_.procCount(), kWarmStartThreshold);
  procSends_.resize(static_cast<std::size_t>(runtime_.procCount()));
  procWildcards_.resize(static_cast<std::size_t>(runtime_.procCount()));
  // Unified suppressed-message accounting: one total plus a per-layer
  // breakdown, so every suppression layer's savings read against the same
  // baseline.
  suppressedTotal_ = &metrics_.counter("tracker/suppressed_msgs");
  suppressedHybrid_ = &metrics_.counter("tracker/suppressed_msgs/hybrid");
  suppressedIncremental_ =
      &metrics_.counter("tracker/suppressed_msgs/incremental");
  certifiedOpsCounter_ = &metrics_.counter("tracker/certified_ops");
  phaseMarksCounter_ = &metrics_.counter("tracker/phase_marks");
  if (config_.certificate != nullptr && config_.certificate->active()) {
    WST_ASSERT(config_.certificate->procCount == runtime_.procCount(),
               "certificate process count does not match the runtime");
    sampleUntil_ = config_.certificate->sampleUntil;
  }

  pingsSentCounter_ = &metrics_.counter("tool/pings_sent");
  gatherSavedBytes_ = &metrics_.counter("tool/gather_saved_bytes");
  mergeSavedBytes_ = &metrics_.counter("tool/waitinfo_merge_saved_bytes");
  waitinfoFanin_ = &metrics_.histogram("tool/waitinfo_fanin");

  // Telemetry plane (DESIGN.md §16): instruments, the per-round timeline,
  // and the per-process overhead buckets exist only when enabled, so a
  // disabled run registers nothing and its metrics dump stays unchanged.
  if (config_.telemetry) {
    ohWrapperNs_ = &metrics_.counter("overhead/wrapper_ns");
    ohSampledNs_ = &metrics_.counter("overhead/sampled_ns");
    ohCreditWaitNs_ = &metrics_.counter("overhead/credit_wait_ns");
    ohSyncNs_ = &metrics_.counter("overhead/sync_ns");
    ohGatherNs_ = &metrics_.counter("overhead/gather_ns");
    ohResyncNs_ = &metrics_.counter("overhead/resync_ns");
    procOverhead_.resize(static_cast<std::size_t>(runtime_.procCount()));
    support::MetricsTimeline::Config tlc;
    tlc.capacity = kTimelineCapacity;
    timeline_ = std::make_unique<support::MetricsTimeline>(metrics_, tlc);
  }
  if (config_.healthBeatInterval > 0) {
    healthBeatsSent_ = &metrics_.counter("health/beats_sent");
    healthRowsReceived_ = &metrics_.counter("health/rows_received");
    healthStaleFlags_ = &metrics_.counter("health/stale_flags");
    healthStaleGauge_ = &metrics_.gauge("health/stale_nodes");
    fleetHealth_.resize(static_cast<std::size_t>(topology_.nodeCount()));
    // One cadence timer per node, on the node's own LP: beats sample only
    // that LP's state and never keep the run alive (leftover ticks are
    // discarded once the last live event drains).
    for (NodeId n = 0; n < topology_.nodeCount(); ++n) {
      if (n == config_.muteHealthBeatNode) continue;  // injected silent node
      engine_.scheduleCadenceOn(overlay_->nodeLp(n),
                                config_.healthBeatInterval,
                                [this, n] { onHealthBeat(n); });
    }
  }

  scheduleCrashPlan();

  if (config_.detectOnQuiescence) {
    quiescenceHookId_ = engine_.addQuiescenceHook([this] { onQuiescence(); });
  }
  if (config_.periodicDetection > 0) {
    // The periodic timer lives on the root's LP: every decision it takes
    // reads only root-LP state, so it composes with the parallel engine.
    periodicRng_.reseed(config_.detectionJitterSeed);
    engine_.scheduleOn(overlay_->nodeLp(topology_.root()),
                       config_.periodicDetection + periodicJitter(),
                       [this] { onPeriodic(); });
  }
}

sim::Duration DistributedTool::periodicJitter() {
  if (config_.detectionJitter <= 0) return 0;
  return static_cast<sim::Duration>(periodicRng_.below(
      static_cast<std::uint64_t>(config_.detectionJitter) + 1));
}

DistributedTool::~DistributedTool() {
  if (config_.detectOnQuiescence) {
    engine_.removeQuiescenceHook(quiescenceHookId_);
  }
  if (runtime_.interposer() == this) runtime_.setInterposer(nullptr);
}

ToolConfig DistributedTool::centralizedConfig(std::int32_t procCount,
                                              ToolConfig base) {
  base.fanIn = std::max(procCount, 2);
  return base;
}

const waitstate::DistributedTracker& DistributedTool::tracker(
    NodeId node) const {
  WST_ASSERT(topology_.isFirstLayer(node), "node has no tracker");
  return *nodes_[static_cast<std::size_t>(node)]->tracker;
}

bool DistributedTool::analysisFinished() const {
  for (NodeId n = 0; n < topology_.firstLayerCount(); ++n) {
    if (!nodes_[static_cast<std::size_t>(n)]->tracker->allFinished()) {
      return false;
    }
  }
  return true;
}

std::uint64_t DistributedTool::totalTransitions() const {
  std::uint64_t total = 0;
  for (NodeId n = 0; n < topology_.firstLayerCount(); ++n) {
    total += nodes_[static_cast<std::size_t>(n)]->tracker->transitions();
  }
  return total;
}

std::size_t DistributedTool::maxWindowSize() const {
  std::size_t maxSize = 0;
  for (NodeId n = 0; n < topology_.firstLayerCount(); ++n) {
    maxSize = std::max(
        maxSize, nodes_[static_cast<std::size_t>(n)]->tracker->maxWindowSize());
  }
  return maxSize;
}

void DistributedTool::refreshDerivedMetrics() {
  // Derived statistics snapshot as gauges (idempotent across calls). Called
  // from single-threaded windows only: post-run (metricsJson) or a
  // deterministic cut (timeline capture), never from inside an event.
  for (const tbon::LinkClass c :
       {tbon::LinkClass::kAppToLeaf, tbon::LinkClass::kIntralayer,
        tbon::LinkClass::kUp, tbon::LinkClass::kDown, tbon::LinkClass::kSelf}) {
    const std::string name = linkClassName(c);
    metrics_.gauge("overlay/messages/" + name)
        .set(static_cast<std::int64_t>(overlay_->messages(c)));
    metrics_.gauge("overlay/channel_messages/" + name)
        .set(static_cast<std::int64_t>(overlay_->channelMessages(c)));
    metrics_.gauge("overlay/bytes/" + name)
        .set(static_cast<std::int64_t>(overlay_->bytes(c)));
  }
  metrics_.gauge("overlay/max_queue_depth")
      .set(static_cast<std::int64_t>(overlay_->maxQueueDepth()));
  metrics_.gauge("tool/transitions")
      .set(static_cast<std::int64_t>(totalTransitions()));
  metrics_.gauge("tool/max_window")
      .set(static_cast<std::int64_t>(maxWindowSize()));
  metrics_.gauge("tool/detections")
      .set(static_cast<std::int64_t>(detectionsRun()));
  metrics_.gauge("tool/verify_divergences")
      .set(static_cast<std::int64_t>(verifyDivergences_));
  metrics_.gauge("tool/hierarchical_divergences")
      .set(static_cast<std::int64_t>(hierarchicalDivergences_));
  if (!roundStats_.empty()) {
    const RoundStats& last = roundStats_.back();
    if (last.hierarchical) {
      metrics_.gauge("tool/last_round/boundary_nodes")
          .set(static_cast<std::int64_t>(last.boundaryNodes));
      metrics_.gauge("tool/last_round/boundary_arcs")
          .set(static_cast<std::int64_t>(last.boundaryArcs));
    }
    metrics_.gauge("tool/last_round/changed")
        .set(static_cast<std::int64_t>(last.changed));
    metrics_.gauge("tool/last_round/unchanged")
        .set(static_cast<std::int64_t>(last.unchanged));
    metrics_.gauge("tool/last_round/repruned")
        .set(static_cast<std::int64_t>(last.repruned));
    metrics_.gauge("tool/last_round/seed_released")
        .set(static_cast<std::int64_t>(last.seedReleased));
    metrics_.gauge("tool/last_round/warm_start").set(last.warmStart ? 1 : 0);
    metrics_.gauge("tool/last_round/full_rebuild")
        .set(last.fullRebuild ? 1 : 0);
  }
}

std::string DistributedTool::metricsJson() {
  refreshDerivedMetrics();
  return metrics_.toJson();
}

// --- Interposition -------------------------------------------------------------

namespace {
/// Tracker protocol messages one suppressed record would have caused beyond
/// its own event: passSend for sends, recvActive + ack for receives, both
/// for sendrecv, ready + ack share for collectives. Drives the hybrid's
/// entry in the unified suppressed-message counters.
std::uint64_t elidedProtocolMsgs(const trace::Record& rec) {
  switch (rec.kind) {
    case trace::Kind::kSend:
    case trace::Kind::kIsend:
      return 1;
    case trace::Kind::kRecv:
    case trace::Kind::kIrecv:
      return 2;
    case trace::Kind::kSendrecv:
      return 3;
    case trace::Kind::kCollective:
      return 2;
    default:
      return 0;
  }
}
}  // namespace

void DistributedTool::onPhase(mpi::Rank rank, std::int32_t phase) {
  (void)rank;
  (void)phase;
  phaseMarksCounter_->add();
}

mpi::Interposer::Hold DistributedTool::onEvent(const trace::Event& event) {
  Hold hold;
  hold.cost = config_.appEventCost;
  const bool isMatchInfo = std::holds_alternative<trace::MatchInfoEvent>(event);
  const ProcId proc =
      isMatchInfo ? std::get<trace::MatchInfoEvent>(event).recvOp.proc
                  : std::get<trace::NewOpEvent>(event).rec.id.proc;

  // Overhead self-accounting (telemetry plane): the wrapper charges its own
  // cost to the process's bucket right here. procOverhead_ is app-LP state
  // and is empty when telemetry is off, so the disabled hot path pays one
  // predictable branch per accounting site and nothing else.
  const bool accountOverhead = !procOverhead_.empty();
  const auto chargeWrapper = [&](std::uint64_t ns, bool sampled) {
    ProcOverhead& po = procOverhead_[static_cast<std::size_t>(proc)];
    if (sampled) {
      po.sampledNs += ns;
      ohSampledNs_->add(ns);
    } else {
      po.wrapperNs += ns;
      ohWrapperNs_->add(ns);
    }
  };

  if (!sampleUntil_.empty()) {
    const trace::LocalTs watermark =
        sampleUntil_[static_cast<std::size_t>(proc)];
    if (isMatchInfo) {
      // A matching decision for a sampled op has no tracker-side op to bind
      // to. Certified prefixes are wildcard-free, so this cannot fire for a
      // sound certificate; stay total anyway.
      if (std::get<trace::MatchInfoEvent>(event).recvOp.ts < watermark) {
        hold.cost = config_.sampledEventCost;
        suppressedHybrid_->add();
        suppressedTotal_->add();
        if (accountOverhead) {
          chargeWrapper(static_cast<std::uint64_t>(hold.cost), true);
        }
        return hold;
      }
    } else {
      const trace::Record& rec = std::get<trace::NewOpEvent>(event).rec;
      if (rec.id.ts < watermark) {
        // Sampling mode: the op is statically proven to match and complete
        // inside the certified prefix. Count it and ship nothing — no event
        // up the TBON, no credits consumed, no tracker work.
        hold.cost = config_.sampledEventCost;
        certifiedOpsCounter_->add();
        const std::uint64_t elided = 1 + elidedProtocolMsgs(rec);
        suppressedHybrid_->add(elided);
        suppressedTotal_->add(elided);
        if (accountOverhead) {
          chargeWrapper(static_cast<std::uint64_t>(hold.cost), true);
        }
        return hold;
      }
      if (watermark > 0 && rec.id.ts == watermark) {
        // First op past the prefix (timestamps are dense, so this happens
        // exactly once per rank): resync the tracker state before the op's
        // own event so it arrives at a fast-forwarded tracker.
        PhaseResyncMsg resync;
        resync.proc = proc;
        resync.opCount = watermark;
        resync.worldCollectives =
            config_.certificate->prefixWorldCollectives;
        overlay_->injectUnthrottled(proc, ToolMsg{resync},
                                    modeledSize(ToolMsg{resync}));
      }
    }
  }

  ToolMsg msg = std::visit([](const auto& e) { return ToolMsg{e}; }, event);
  const std::size_t bytes = trace::modeledSize(event);
  if (accountOverhead) {
    chargeWrapper(static_cast<std::uint64_t>(hold.cost), false);
  }

  if (isMatchInfo) {
    // Status piggybacks on the operation's completion; never blocks.
    overlay_->injectUnthrottled(proc, std::move(msg), bytes);
    return hold;
  }
  if (overlay_->canInject(proc)) {
    overlay_->inject(proc, std::move(msg), bytes);
    return hold;
  }
  // Tool channel full: the rank blocks until the leaf node catches up. With
  // telemetry on, the time from here to the credit callback is the rank's
  // backpressure stall; both timestamps are taken on the app LP (the app
  // channel's producer), so the bucket is deterministic.
  auto gate = std::make_shared<sim::Gate>();
  hold.wait = gate;
  const sim::Time blockStart = engine_.now();
  overlay_->onceInjectCredit(
      proc,
      [this, proc, m = std::move(msg), bytes, gate, blockStart]() mutable {
        if (!procOverhead_.empty()) {
          const auto waited =
              static_cast<std::uint64_t>(engine_.now() - blockStart);
          procOverhead_[static_cast<std::size_t>(proc)].creditWaitNs += waited;
          ohCreditWaitNs_->add(waited);
        }
        overlay_->inject(proc, std::move(m), bytes);
        gate->open();
      });
  return hold;
}

void DistributedTool::traceDelivery(NodeId self, NodeId srcNode,
                                    const ToolMsg& msg) {
  support::TraceTrack* track = nodeTrack(self);
  if (track == nullptr) return;
  std::visit(
      Overloaded{
          [&](const waitstate::PassSendMsg& m) {
            track->flowEnd("passSend", "waitstate",
                           packOpFlow(kPassSendFlow, m.sendOp));
          },
          [&](const waitstate::RecvActiveMsg& m) {
            track->flowEnd("recvActive", "waitstate",
                           packOpFlow(kRecvActiveFlow, m.recvOp));
          },
          [&](const waitstate::RecvActiveAckMsg& m) {
            track->flowEnd("recvActiveAck", "waitstate",
                           packOpFlow(kRecvActiveAckFlow, m.recvOp));
          },
          [&](const waitstate::CollectiveReadyMsg& m) {
            track->flowEnd(
                "collectiveReady", "waitstate",
                packCollFlow(kCollReadyFlow, m.comm, m.wave, srcNode));
          },
          [&](const waitstate::CollectiveAckMsg& m) {
            track->flowEnd("collectiveAck", "waitstate",
                           packCollFlow(kCollAckFlow, m.comm, m.wave, self));
          },
          [&](const PingMsg& m) {
            track->instant("ping", "consistent", "origin", m.origin,
                           "remaining", m.remaining);
          },
          [&](const PongMsg& m) {
            track->instant("pong", "consistent", "responder", m.responder,
                           "remaining", m.remaining);
          },
          [&](const RequestWaitsMsg& m) {
            track->instant("requestWaits", "detect", "epoch", m.epoch,
                           "baseEpoch", m.baseEpoch);
          },
          [&](const WaitInfoMsg& m) {
            track->instant("waitInfo", "detect", "conditions",
                           static_cast<std::int64_t>(m.conditions.size()),
                           "unchanged", m.unchangedCount);
          },
          [&](const CondensedWaitInfoMsg& m) {
            track->instant(
                "condensedWaitInfo", "detect", "boundary",
                static_cast<std::int64_t>(m.wait.cond.nodes.size()),
                "finished", m.wait.finishedCount);
          },
          [&](const DeadlockDetailMsg& m) {
            track->instant("deadlockDetail", "detect", "conditions",
                           static_cast<std::int64_t>(m.conditions.size()));
          },
          [&](const auto&) {},
      },
      msg);
}

// --- Message dispatch -------------------------------------------------------------

sim::Duration DistributedTool::messageCost(NodeId /*node*/,
                                           const ToolMsg& msg) const {
  return std::visit(
      Overloaded{
          [&](const trace::NewOpEvent&) { return config_.newOpCost; },
          [&](const trace::MatchInfoEvent&) { return config_.matchInfoCost; },
          [&](const waitstate::PassSendMsg&) { return config_.intralayerCost; },
          [&](const waitstate::RecvActiveMsg&) {
            return config_.intralayerCost;
          },
          [&](const waitstate::RecvActiveAckMsg&) {
            return config_.intralayerCost;
          },
          [&](const waitstate::CollectiveReadyMsg&) {
            return config_.collectiveMsgCost;
          },
          [&](const waitstate::CollectiveAckMsg&) {
            return config_.collectiveMsgCost;
          },
          [&](const WaitInfoMsg& m) {
            return config_.controlMsgCost +
                   static_cast<sim::Duration>(20 * m.conditions.size());
          },
          [&](const CondensedWaitInfoMsg& m) {
            // Service cost follows the boundary, not p: that is the point of
            // the hierarchical check.
            return config_.controlMsgCost +
                   static_cast<sim::Duration>(20 * m.wait.cond.nodes.size());
          },
          [&](const DeadlockDetailMsg& m) {
            return config_.controlMsgCost +
                   static_cast<sim::Duration>(20 * m.conditions.size());
          },
          [&](const auto&) { return config_.controlMsgCost; },
      },
      msg);
}

void DistributedTool::broadcastDown(NodeId from, const ToolMsg& msg) {
  // Fans out over the *live* children: adoptions reroute a torn subtree's
  // downward traffic through its adopter, and a crashed child is skipped.
  const NodeState& ns = *nodes_[static_cast<std::size_t>(from)];
  support::TraceTrack* track = nodeTrack(from);
  const waitstate::CollectiveAckMsg* ack =
      std::get_if<waitstate::CollectiveAckMsg>(&msg);
  if (ns.liveChildren.empty()) {
    // Single-node tree: the root is also the first layer; self-deliver.
    if (track != nullptr && ack != nullptr) {
      track->flowBegin("collectiveAck", "waitstate",
                       packCollFlow(kCollAckFlow, ack->comm, ack->wave, from));
    }
    overlay_->sendIntralayer(from, from, ToolMsg{msg}, modeledSize(msg));
    return;
  }
  for (const NodeId child : ns.liveChildren) {
    if (track != nullptr && ack != nullptr) {
      track->flowBegin(
          "collectiveAck", "waitstate",
          packCollFlow(kCollAckFlow, ack->comm, ack->wave, child));
    }
    overlay_->sendDown(from, child, ToolMsg{msg}, modeledSize(msg));
  }
}

void DistributedTool::handleMessage(NodeId node, ToolMsg&& msg) {
  msgCounters_[msg.index()]->add();
  NodeState& ns = *nodes_[static_cast<std::size_t>(node)];
  ++ns.deliveredMsgs;
  std::visit(
      Overloaded{
          [&](trace::NewOpEvent& e) { ns.tracker->onNewOp(e.rec); },
          [&](trace::MatchInfoEvent& e) { ns.tracker->onMatchInfo(e); },
          [&](PhaseResyncMsg& m) {
            ns.resyncedOps += static_cast<std::uint64_t>(m.opCount);
            if (ohResyncNs_ != nullptr) {
              ohResyncNs_->add(
                  static_cast<std::uint64_t>(config_.controlMsgCost));
            }
            ns.tracker->fastForward(m.proc, m.opCount, m.worldCollectives);
          },
          [&](waitstate::PassSendMsg& m) { ns.tracker->onPassSend(m); },
          [&](waitstate::RecvActiveMsg& m) { ns.tracker->onRecvActive(m); },
          [&](waitstate::RecvActiveAckMsg& m) {
            // Planted bug for fuzzer validation (ToolConfig::injectBug):
            // losing probe acks leaves probe wait states permanently
            // blocked on this node while the centralized oracle resolves
            // them — a divergence the fuzzer must catch.
            if (config_.injectBug == 1 && m.forProbe) return;
            ns.tracker->onRecvActiveAck(m);
          },
          [&](waitstate::CollectiveReadyMsg& m) {
            handleCollectiveReady(node, m);
          },
          [&](waitstate::CollectiveAckMsg& m) {
            if (topology_.isFirstLayer(node)) {
              ns.pendingColl.erase({m.comm, m.wave});
              ns.tracker->onCollectiveAck(m);
            } else {
              // The ack retires the subtree's forwarded contribution (and
              // its per-child ledger); a recovery re-broadcast arriving a
              // second time erases nothing and fans out again — harmless.
              ns.forwardedColl.erase({m.comm, m.wave});
              ns.innerContrib.erase({m.comm, m.wave});
              broadcastDown(node, ToolMsg{m});
            }
          },
          [&](RequestConsistentStateMsg& m) {
            if (topology_.isFirstLayer(node)) {
              handleRequestConsistentState(node, m.epoch);
            } else {
              ns.epoch = m.epoch;  // inner nodes track the epoch for beats
              broadcastDown(node, ToolMsg{m});
            }
          },
          [&](AckConsistentStateMsg& m) {
            if (topology_.isRoot(node)) {
              // Acks of a torn (crash-aborted) round must not count against
              // the restarted round's tally.
              if (!detectionInProgress_ || m.epoch != epoch_) return;
              acksAtRoot_ += m.count;
              if (acksAtRoot_ ==
                  static_cast<std::uint32_t>(topology_.firstLayerCount())) {
                handleRootAllAcked();
              }
            } else {
              overlay_->sendUp(node, ToolMsg{m}, modeledSize(ToolMsg{m}));
            }
          },
          [&](PingMsg& m) {
            overlay_->sendIntralayer(
                node, m.origin, ToolMsg{PongMsg{node, m.remaining, m.epoch}},
                12);
          },
          [&](PongMsg& m) {
            // A pong of a round the root abandoned (crash tore it) arrives
            // after this node already moved to the restarted epoch: drop it
            // instead of miscounting it against the new round.
            if (m.epoch != ns.epoch || ns.outstandingPeers <= 0) return;
            if (m.remaining > 0) {
              overlay_->sendIntralayer(
                  node, m.responder,
                  ToolMsg{PingMsg{node, m.remaining - 1, m.epoch}}, 12);
              return;
            }
            if (--ns.outstandingPeers == 0) maybeAckConsistentState(node);
          },
          [&](RequestWaitsMsg& m) {
            if (!topology_.isFirstLayer(node)) {
              broadcastDown(node, ToolMsg{m});
              return;
            }
            // A torn round's request straggling in after the restarted
            // round's consistent-state sync must not resume the tracker
            // mid-sync (the new round's cut would be unsound).
            if (m.epoch != ns.epoch) return;
            const tbon::NodeInfo& topo = topology_.node(node);
            std::vector<waitstate::DistributedTracker::ActiveSend> sends;
            std::vector<waitstate::DistributedTracker::ActiveWildcard> wilds;
            std::int64_t reported = 0;
            if (hierPathActive()) {
              // Condensed reply (hierarchical check): condense the full,
              // pristine conditions of every hosted process — the fixpoint
              // resolves subtree-local fates right here and only the
              // boundary travels up. No delta: the condensation is a
              // from-scratch summary each round. Runs before the raw loop
              // so markReported() cannot disturb the snapshot semantics.
              CondensedWaitInfoMsg cmsg;
              cmsg.wait.epoch = m.epoch;
              std::vector<wfg::NodeConditions> conds;
              conds.reserve(static_cast<std::size_t>(topo.procCount()));
              for (ProcId p = topo.procLo; p < topo.procHi; ++p) {
                conds.push_back(ns.tracker->waitConditions(p));
                if (conds.back().finished) ++cmsg.wait.finishedCount;
                if (!rawPathActive()) {
                  // Pure mode: the §3.3 facts ride the condensed message.
                  sends.clear();
                  ns.tracker->appendActiveSends(p, sends);
                  for (const auto& s : sends) {
                    cmsg.activeSends.push_back(
                        ActiveSendInfo{s.op, s.dest, s.tag, s.comm});
                  }
                  wilds.clear();
                  ns.tracker->appendActiveWildcards(p, wilds);
                  for (const auto& w : wilds) {
                    ActiveWildcardInfo wi;
                    wi.op = w.op;
                    wi.tag = w.tag;
                    wi.comm = w.comm;
                    wi.matched = w.matched;
                    wi.matchedSend = w.matchedSend;
                    cmsg.activeWildcards.push_back(wi);
                  }
                }
              }
              cmsg.wait.cond =
                  wfg::condenseLeaf(conds, topo.procLo, topo.procHi);
              reported =
                  static_cast<std::int64_t>(cmsg.wait.cond.nodes.size());
              ns.lastCondNodes = cmsg.wait.cond.nodes.size();
              if (topology_.isRoot(node)) {
                handleCondensedAtRoot(std::move(cmsg));
              } else {
                const std::size_t bytes = modeledSize(ToolMsg{cmsg});
                overlay_->sendUp(node, ToolMsg{std::move(cmsg)}, bytes);
              }
            }
            if (rawPathActive()) {
              // Delta reply: processes whose wait-state version is unchanged
              // since this node's reply of the root's base epoch are elided
              // and only counted. Everything else (first round, base
              // mismatch, incremental gather off) reports in full.
              WaitInfoMsg info;
              info.epoch = m.epoch;
              const bool delta = config_.incrementalGather &&
                                 m.baseEpoch != 0 &&
                                 m.baseEpoch == ns.lastReplyEpoch;
              for (ProcId p = topo.procLo; p < topo.procHi; ++p) {
                const auto local = static_cast<std::size_t>(p - topo.procLo);
                if (delta && !ns.tracker->dirtySinceReport(p)) {
                  ++info.unchangedCount;
                  gatherSavedBytes_->add(ns.lastCondBytes[local]);
                  // One elided per-process conditions entry in the reply.
                  suppressedIncremental_->add();
                  suppressedTotal_->add();
                  continue;
                }
                wfg::NodeConditions cond = ns.tracker->waitConditions(p);
                ns.lastCondBytes[local] = conditionBytes(cond);
                info.conditions.push_back(std::move(cond));
                sends.clear();
                ns.tracker->appendActiveSends(p, sends);
                for (const auto& s : sends) {
                  info.activeSends.push_back(
                      ActiveSendInfo{s.op, s.dest, s.tag, s.comm});
                }
                wilds.clear();
                ns.tracker->appendActiveWildcards(p, wilds);
                for (const auto& w : wilds) {
                  ActiveWildcardInfo wi;
                  wi.op = w.op;
                  wi.tag = w.tag;
                  wi.comm = w.comm;
                  wi.matched = w.matched;
                  wi.matchedSend = w.matchedSend;
                  info.activeWildcards.push_back(wi);
                }
                ns.tracker->markReported(p);
              }
              ns.lastReplyEpoch = m.epoch;
              reported = static_cast<std::int64_t>(info.conditions.size());
              if (topology_.isRoot(node)) {
                handleWaitInfoAtRoot(std::move(info));
              } else {
                const std::size_t bytes = modeledSize(ToolMsg{info});
                overlay_->sendUp(node, ToolMsg{std::move(info)}, bytes);
              }
            }
            if (ns.trace) {
              ns.trace->spanEnd("stopped", "consistent", "reported", reported);
            }
            ns.tracker->resumeProgress();
          },
          [&](WaitInfoMsg& m) {
            if (topology_.isRoot(node)) {
              handleWaitInfoAtRoot(std::move(m));
              return;
            }
            // Epoch-keyed partial merge: a crash can tear a round mid-merge,
            // so a newer epoch discards the stale partial and a torn round's
            // straggler is dropped.
            if (ns.waitInfoChildren > 0 && m.epoch != ns.pendingWaitInfo.epoch) {
              if (m.epoch < ns.pendingWaitInfo.epoch) return;
              ns.pendingWaitInfo = WaitInfoMsg{};
              ns.waitInfoChildren = 0;
              ns.waitInfoChildBytes = 0;
            }
            // TBON aggregation: merge the subtree's deltas into one upward
            // message per round instead of relaying each child's reply.
            ns.waitInfoChildBytes += modeledSize(ToolMsg{m});
            ns.pendingWaitInfo.epoch = m.epoch;
            ns.pendingWaitInfo.unchangedCount += m.unchangedCount;
            std::move(m.conditions.begin(), m.conditions.end(),
                      std::back_inserter(ns.pendingWaitInfo.conditions));
            std::move(m.activeSends.begin(), m.activeSends.end(),
                      std::back_inserter(ns.pendingWaitInfo.activeSends));
            std::move(m.activeWildcards.begin(), m.activeWildcards.end(),
                      std::back_inserter(ns.pendingWaitInfo.activeWildcards));
            ++ns.waitInfoChildren;
            if (ns.waitInfoChildren <
                static_cast<std::uint32_t>(ns.liveChildren.size())) {
              return;
            }
            WaitInfoMsg merged = std::move(ns.pendingWaitInfo);
            ns.pendingWaitInfo = WaitInfoMsg{};
            ns.waitInfoChildren = 0;
            const std::size_t bytes = modeledSize(ToolMsg{merged});
            waitinfoFanin_->record(ns.liveChildren.size());
            if (ns.waitInfoChildBytes > bytes) {
              mergeSavedBytes_->add(ns.waitInfoChildBytes - bytes);
            }
            ns.waitInfoChildBytes = 0;
            overlay_->sendUp(node, ToolMsg{std::move(merged)}, bytes);
          },
          [&](CondensedWaitInfoMsg& m) {
            if (topology_.isRoot(node)) {
              handleCondensedAtRoot(std::move(m));
              return;
            }
            // Inner-node hierarchical step: once every child condensation
            // arrived, merge them, resolve everything that became
            // subtree-local at this level, and forward one condensation of
            // the whole subtree.
            if (ns.condChildren > 0 && m.wait.epoch != ns.condEpoch) {
              if (m.wait.epoch < ns.condEpoch) return;  // torn-round straggler
              ns.pendingCond.clear();
              ns.pendingCondSends.clear();
              ns.pendingCondWildcards.clear();
              ns.pendingCondFinished = 0;
              ns.condChildren = 0;
            }
            ns.condEpoch = m.wait.epoch;
            ns.pendingCondFinished += m.wait.finishedCount;
            ns.pendingCond.push_back(std::move(m.wait.cond));
            std::move(m.activeSends.begin(), m.activeSends.end(),
                      std::back_inserter(ns.pendingCondSends));
            std::move(m.activeWildcards.begin(), m.activeWildcards.end(),
                      std::back_inserter(ns.pendingCondWildcards));
            if (++ns.condChildren <
                static_cast<std::uint32_t>(ns.liveChildren.size())) {
              return;
            }
            std::sort(ns.pendingCond.begin(), ns.pendingCond.end(),
                      [](const wfg::Condensation& a,
                         const wfg::Condensation& b) {
                        return a.procLo < b.procLo;
                      });
            CondensedWaitInfoMsg merged;
            merged.wait.epoch = ns.condEpoch;
            merged.wait.finishedCount = ns.pendingCondFinished;
            merged.wait.cond = wfg::condenseMerge(ns.pendingCond);
            merged.activeSends = std::move(ns.pendingCondSends);
            merged.activeWildcards = std::move(ns.pendingCondWildcards);
            ns.pendingCond.clear();
            ns.pendingCondSends.clear();
            ns.pendingCondWildcards.clear();
            ns.pendingCondFinished = 0;
            ns.condChildren = 0;
            ns.lastCondNodes = merged.wait.cond.nodes.size();
            const std::size_t bytes = modeledSize(ToolMsg{merged});
            overlay_->sendUp(node, ToolMsg{std::move(merged)}, bytes);
          },
          [&](DeadlockDetailRequestMsg& m) {
            if (!topology_.isFirstLayer(node)) {
              broadcastDown(node, ToolMsg{m});
              return;
            }
            // Reply with the conditions of the hosted deadlocked processes.
            // Every first-layer node answers (possibly with nothing) so the
            // merge above can count one reply per child.
            if (m.epoch != ns.epoch) return;  // torn-round straggler
            DeadlockDetailMsg reply;
            reply.epoch = m.epoch;
            const tbon::NodeInfo& topo = topology_.node(node);
            for (const ProcId p : m.procs) {
              if (p < topo.procLo || p >= topo.procHi) continue;
              reply.conditions.push_back(ns.tracker->waitConditions(p));
            }
            if (topology_.isRoot(node)) {
              handleDeadlockDetailAtRoot(std::move(reply));
            } else {
              const std::size_t bytes = modeledSize(ToolMsg{reply});
              overlay_->sendUp(node, ToolMsg{std::move(reply)}, bytes);
            }
          },
          [&](DeadlockDetailMsg& m) {
            if (topology_.isRoot(node)) {
              handleDeadlockDetailAtRoot(std::move(m));
              return;
            }
            if (ns.detailChildren > 0 && m.epoch != ns.pendingDetail.epoch) {
              if (m.epoch < ns.pendingDetail.epoch) return;
              ns.pendingDetail = DeadlockDetailMsg{};
              ns.detailChildren = 0;
            }
            ns.pendingDetail.epoch = m.epoch;
            std::move(m.conditions.begin(), m.conditions.end(),
                      std::back_inserter(ns.pendingDetail.conditions));
            if (++ns.detailChildren <
                static_cast<std::uint32_t>(ns.liveChildren.size())) {
              return;
            }
            DeadlockDetailMsg merged = std::move(ns.pendingDetail);
            ns.pendingDetail = DeadlockDetailMsg{};
            ns.detailChildren = 0;
            const std::size_t bytes = modeledSize(ToolMsg{merged});
            overlay_->sendUp(node, ToolMsg{std::move(merged)}, bytes);
          },
          [&](HealthBeatMsg& m) {
            // Fire-and-forget fold toward the root: inner nodes relay the
            // rows unchanged (the vector form keeps future coalescing
            // possible); the root integrates them into the fleet table.
            if (topology_.isRoot(node)) {
              integrateHealthRows(m.rows);
              return;
            }
            const std::size_t bytes = modeledSize(ToolMsg{m});
            overlay_->sendUp(node, ToolMsg{std::move(m)}, bytes);
          },
          [&](ReparentMsg& m) {
            // Re-route up traffic, replay unacknowledged collective
            // contributions over the new path (idempotent: aggregation is
            // origin-keyed at every level), then re-register so the root can
            // confirm the subtree is re-anchored end to end.
            overlay_->setLiveParent(node, m.newParent);
            if (config_.injectBug != 2) {
              for (const auto& [key, ready] : ns.pendingColl) {
                overlay_->sendUp(node, ToolMsg{ready},
                                 waitstate::kCollectiveReadyBytes);
              }
              for (const auto& [key, ready] : ns.forwardedColl) {
                overlay_->sendUp(node, ToolMsg{ready},
                                 waitstate::kCollectiveReadyBytes);
              }
            }
            overlay_->sendUp(node, ToolMsg{ReRegisterMsg{node, m.deadNode}},
                             12);
          },
          [&](AdoptMsg& m) {
            applyAdoption(node, m);
            overlay_->sendUp(node, ToolMsg{AdoptAckMsg{node, m.deadNode}}, 12);
          },
          [&](AdoptAckMsg& m) {
            if (!topology_.isRoot(node)) {
              overlay_->sendUp(node, ToolMsg{m}, 12);
              return;
            }
            if (recovery_ && m.deadNode == recovery_->dead) {
              ++recovery_->adoptAcks;
              maybeCompleteRecovery();
            }
          },
          [&](ReRegisterMsg& m) {
            if (!topology_.isRoot(node)) {
              overlay_->sendUp(node, ToolMsg{m}, 12);
              return;
            }
            if (recovery_ && m.deadNode == recovery_->dead) {
              ++recovery_->reRegisters;
              maybeCompleteRecovery();
            }
          },
      },
      msg);
}

// --- Collective matching in the tree -------------------------------------------------

void DistributedTool::handleCollectiveReady(
    NodeId node, const waitstate::CollectiveReadyMsg& msg) {
  const auto key = std::make_pair(msg.comm, msg.wave);
  if (topology_.isRoot(node)) {
    // Replays of already-acked waves (orphans re-send after re-parenting)
    // and stragglers from a crashed aggregator must not re-count.
    if (completedWaves_.count(key) != 0) return;
    if (msg.originNode >= 0 &&
        rootDeadNodes_.count(static_cast<NodeId>(msg.originNode)) != 0) {
      return;
    }
    RootWaveState& wave = rootWaves_[key];
    if (!wave.kindRecorded) {
      wave.kind = msg.kind;
      wave.kindRecorded = true;
    } else if (wave.kind != msg.kind) {
      usageErrors_.push_back(support::format(
          "collective mismatch on comm %d wave %u: %s vs %s", msg.comm,
          msg.wave, mpi::toString(wave.kind), mpi::toString(msg.kind)));
    }
    wave.contrib[static_cast<NodeId>(msg.originNode)] = msg.readyCount;
    auto sizeIt = rootGroupSizes_.find(msg.comm);
    if (sizeIt == rootGroupSizes_.end()) {
      sizeIt = rootGroupSizes_
                   .emplace(msg.comm, static_cast<std::uint32_t>(
                                          commView_.group(msg.comm).size()))
                   .first;
    }
    const std::uint32_t groupSize = sizeIt->second;
    const std::uint32_t sum = wave.readySum();
    WST_ASSERT(sum <= groupSize, "collective over-subscription");
    if (sum == groupSize) {
      completedWaves_.emplace(key, wave.kind);
      rootCollectiveComplete(msg);
      rootWaves_.erase(key);
    }
    return;
  }

  // Inner node: order-preserving aggregation keyed by the contributing
  // child, so a replay after re-parenting replaces instead of double-counts
  // — forward one message once the whole subtree is ready (paper [12]).
  NodeState& ns = *nodes_[static_cast<std::size_t>(node)];
  const NodeId origin = static_cast<NodeId>(msg.originNode);
  if (ns.deadChildren.count(origin) != 0) return;  // straggler from a crash
  auto& contrib = ns.innerContrib[key];
  contrib[origin] = msg.readyCount;
  const std::uint32_t expected = ns.expectedInComm(msg.comm);
  std::uint32_t sum = 0;
  for (const auto& [child, count] : contrib) sum += count;
  WST_ASSERT(sum <= expected, "subtree collective over-subscription");
  if (sum == expected) {
    waitstate::CollectiveReadyMsg up = msg;
    up.readyCount = expected;
    up.originNode = node;
    if (ns.trace) {
      ns.trace->flowBegin("collectiveReady", "waitstate",
                          packCollFlow(kCollReadyFlow, msg.comm, msg.wave,
                                       node));
    }
    // Kept (not erased) until the root's ack so a post-crash replay request
    // can re-send the aggregate; the ack erases both maps.
    ns.forwardedColl[key] = up;
    overlay_->sendUp(node, ToolMsg{up}, waitstate::kCollectiveReadyBytes);
  }
}

void DistributedTool::rootCollectiveComplete(
    const waitstate::CollectiveReadyMsg& msg) {
  broadcastDown(topology_.root(),
                ToolMsg{waitstate::CollectiveAckMsg{msg.comm, msg.wave}});
}

// --- Crash recovery (DESIGN.md §17) -----------------------------------------------------

void DistributedTool::scheduleCrashPlan() {
  for (const ToolConfig::CrashPlanEntry& entry : config_.crashPlan) {
    WST_ASSERT(innerNodeEligible(entry.node),
               "crash victims must be inner tool nodes");
    WST_ASSERT(entry.at > 0, "crash time must be positive");
    const tbon::NodeId victim = entry.node;
    engine_.scheduleOn(overlay_->nodeLp(victim), entry.at,
                       [this, victim] { overlay_->crashNode(victim); });
  }
}

bool DistributedTool::maybeInitiateRecovery() {
  if (recovery_) return true;
  for (const ToolConfig::CrashPlanEntry& entry : config_.crashPlan) {
    if (entry.at <= engine_.now() && recoveredNodes_.count(entry.node) == 0) {
      initiateRecovery(entry.node);
    }
  }
  return recovery_.has_value();
}

void DistributedTool::initiateRecovery(tbon::NodeId dead) {
  if (!recoveredNodes_.insert(dead).second) return;
  if (recovery_) {
    pendingRecoveries_.push_back(dead);
    return;
  }
  beginRecovery(dead);
}

void DistributedTool::beginRecovery(tbon::NodeId dead) {
  if (healthReparentRuns_ != nullptr) healthReparentRuns_->add();
  // A crashed node is by definition stale. Flag it here so the fleet-health
  // table shows exactly one flag transition per crash no matter which path
  // initiated recovery — the staleness sweep (which flags first and
  // confirms before acting) or the quiescence/periodic crash-plan scan
  // (which can beat the sweep to it). The sweep freezes recovered nodes,
  // so this transition is the only one the victim ever gets.
  if (!fleetHealth_.empty()) {
    NodeHealth& h = fleetHealth_[static_cast<std::size_t>(dead)];
    if (!h.stale) {
      h.stale = true;
      if (healthStaleFlags_ != nullptr) healthStaleFlags_->add();
      if (healthStaleGauge_ != nullptr) {
        healthStaleGauge_->set(static_cast<std::int64_t>(staleNodeCount()));
      }
    }
  }
  RecoveryState rec;
  rec.dead = dead;
  const NodeId parent = rootLiveParent_[static_cast<std::size_t>(dead)];
  std::vector<NodeId> orphans = rootLiveChildren_[static_cast<std::size_t>(dead)];

  // Adopter is the dead node's parent unless that would blow the fan-in
  // bound; then the whole orphan set goes to the live sibling with the
  // fewest children (ties to the lowest id, for determinism).
  NodeId adopter = parent;
  if (!topology_.isRoot(adopter)) {
    const std::size_t after =
        rootLiveChildren_[static_cast<std::size_t>(parent)].size() - 1 +
        orphans.size();
    if (after > 2 * static_cast<std::size_t>(config_.fanIn)) {
      NodeId best = -1;
      for (const NodeId sib :
           rootLiveChildren_[static_cast<std::size_t>(parent)]) {
        if (sib == dead) continue;
        if (best < 0 ||
            rootLiveChildren_[static_cast<std::size_t>(sib)].size() <
                rootLiveChildren_[static_cast<std::size_t>(best)].size()) {
          best = sib;
        }
      }
      if (best >= 0) adopter = best;
    }
  }
  rec.parent = parent;
  rec.adopter = adopter;
  rec.expectedReRegisters = static_cast<std::uint32_t>(orphans.size());
  rec.expectedAdoptAcks = adopter == parent ? 1 : 2;

  // Root-side shadow topology: the recovery plan and future recoveries are
  // computed against the live tree, not the static one.
  auto& pc = rootLiveChildren_[static_cast<std::size_t>(parent)];
  pc.erase(std::remove(pc.begin(), pc.end(), dead), pc.end());
  auto& ac = rootLiveChildren_[static_cast<std::size_t>(adopter)];
  for (const NodeId o : orphans) {
    rootLiveParent_[static_cast<std::size_t>(o)] = adopter;
    ac.push_back(o);
  }
  std::sort(ac.begin(), ac.end());
  rootDeadNodes_.insert(dead);
  for (auto& [key, wave] : rootWaves_) wave.contrib.erase(dead);
  recovery_ = rec;
  if (rootTrack_) {
    rootTrack_->instant("reparent", "health", "dead", dead);
  }

  const NodeId root = topology_.root();
  const auto sendAdopt = [&](NodeId target, std::vector<NodeId> orphanSet) {
    AdoptMsg adopt;
    adopt.deadNode = dead;
    adopt.orphans = std::move(orphanSet);
    if (target == root) {
      applyAdoption(root, adopt);
      ++recovery_->adoptAcks;
    } else {
      const std::size_t bytes = modeledSize(ToolMsg{adopt});
      overlay_->sendDown(root, target, ToolMsg{std::move(adopt)}, bytes);
    }
  };
  sendAdopt(adopter, orphans);
  // When a sibling adopts, the parent still needs to drop the dead child
  // from its live set (empty orphan list = drop-only adoption).
  if (adopter != parent) sendAdopt(parent, {});
  for (const NodeId o : orphans) {
    overlay_->sendDown(root, o, ToolMsg{ReparentMsg{dead, adopter}}, 12);
  }
  maybeCompleteRecovery();
}

void DistributedTool::applyAdoption(tbon::NodeId node, const AdoptMsg& msg) {
  NodeState& ns = *nodes_[static_cast<std::size_t>(node)];
  ns.deadChildren.insert(msg.deadNode);
  auto& lc = ns.liveChildren;
  lc.erase(std::remove(lc.begin(), lc.end(), msg.deadNode), lc.end());
  for (const NodeId o : msg.orphans) lc.push_back(o);
  std::sort(lc.begin(), lc.end());
  ns.hostedCounts.clear();  // expected counts follow the live children
  // Any contribution counted from the dead child is stale: the orphans
  // replay the ground truth over the new path.
  for (auto& [key, contrib] : ns.innerContrib) contrib.erase(msg.deadNode);
}

void DistributedTool::maybeCompleteRecovery() {
  if (!recovery_) return;
  if (recovery_->adoptAcks < recovery_->expectedAdoptAcks) return;
  if (recovery_->reRegisters < recovery_->expectedReRegisters) return;
  completeRecovery();
}

void DistributedTool::completeRecovery() {
  const NodeId root = topology_.root();
  // Re-broadcast the acks of every completed wave: an orphan's replay of a
  // wave that completed through the dead aggregator may have left a stale
  // partial at the adopter; the ack erases it everywhere.
  for (const auto& [key, kind] : completedWaves_) {
    (void)kind;
    if (healthReackWaves_ != nullptr) healthReackWaves_->add();
    broadcastDown(root,
                  ToolMsg{waitstate::CollectiveAckMsg{key.first, key.second}});
  }
  // Reset the health table's arrival clocks so the torn interval does not
  // immediately flag surviving nodes stale.
  if (!fleetHealth_.empty()) {
    const auto now = static_cast<std::uint64_t>(engine_.now());
    for (std::size_t n = 0; n < fleetHealth_.size(); ++n) {
      if (rootDeadNodes_.count(static_cast<NodeId>(n)) != 0) continue;
      fleetHealth_[n].arrivedAtNs = now;
    }
  }
  ++recoveriesCompleted_;
  recovery_.reset();
  if (detectionInProgress_) {
    abortTornRound();
    startDetection();
  }
  if (!pendingRecoveries_.empty()) {
    const NodeId next = pendingRecoveries_.front();
    pendingRecoveries_.erase(pendingRecoveries_.begin());
    beginRecovery(next);
  }
}

void DistributedTool::abortTornRound() {
  if (!detectionInProgress_) return;
  // The partial gather is unusable: the dead aggregator may have swallowed
  // replies. Drop the staged delta (re-collected against the last committed
  // epoch) and restart; epoch guards drop the torn round's stragglers.
  incremental_->discardStaged();
  if (rootTrack_) rootTrack_->instant("roundTorn", "detect", "epoch", epoch_);
  detectionInProgress_ = false;
}

// --- Detection (paper §5) -------------------------------------------------------------

void DistributedTool::onQuiescence() {
  // Recovery runs first and unconditionally: a crash can strand the tool
  // after a verdict or mid-round, and quiescence guarantees no stragglers
  // are in flight — the safest moment to re-parent.
  if (maybeInitiateRecovery()) return;
  if (detectionInProgress_) return;
  if (deadlockFound()) return;
  if (analysisFinished() && runtime_.allFinalized()) return;
  if (quiescenceDetections_ >= 3) return;  // diverging: give up safely
  ++quiescenceDetections_;
  startDetection();
}

void DistributedTool::onPeriodic() {
  // Runs on the root's LP; every read here is root-LP state. The timer stops
  // once a round reported deadlock or gathered "finished" from every process
  // (periodicStopped_), so it never inspects tracker or runtime state that
  // lives on other LPs.
  if (deadlockFound() || periodicStopped_) return;
  if (config_.maxPeriodicRounds != 0 &&
      ++periodicRounds_ > config_.maxPeriodicRounds) {
    return;
  }
  const bool recovering = maybeInitiateRecovery();
  if (!recovering && !detectionInProgress_) startDetection();
  engine_.scheduleOn(overlay_->nodeLp(topology_.root()),
                     engine_.now() + config_.periodicDetection +
                         periodicJitter(),
                     [this] { onPeriodic(); });
}

void DistributedTool::startDetection() {
  WST_ASSERT(!detectionInProgress_, "detection already running");
  detectionInProgress_ = true;
  ++epoch_;
  acksAtRoot_ = 0;
  gatheredProcs_ = 0;
  gatheredUnchanged_ = 0;
  rootCondensations_.clear();
  rootCondFinished_ = 0;
  pendingHier_.reset();
  detailConds_.clear();
  detailMsgsAtRoot_ = 0;
  syncStart_ = engine_.now();
  if (rootTrack_) {
    rootTrack_->spanBegin("detection", "detect", "epoch", epoch_);
    rootTrack_->spanBegin("sync", "detect");
  }
  broadcastDown(topology_.root(), ToolMsg{RequestConsistentStateMsg{epoch_}});
}

void DistributedTool::handleRequestConsistentState(NodeId node,
                                                   std::uint32_t epoch) {
  NodeState& ns = *nodes_[static_cast<std::size_t>(node)];
  if (ns.trace) ns.trace->spanBegin("stopped", "consistent", "epoch", epoch);
  ns.tracker->stopProgress();
  ns.epoch = epoch;

  // Nodes that may still owe us wait-state messages: those hosting matching
  // receives of our outstanding sends (paper Figure 8). The node itself is a
  // valid target: same-node matching uses the (FIFO, zero-latency) self
  // channel, and the self ping-pong flushes it exactly like a remote one.
  std::vector<NodeId> peers;
  for (const ProcId proc : ns.tracker->activeSendPeerProcs()) {
    peers.push_back(topology_.nodeOfProc(proc));
  }
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());

  for (const NodeId peer : peers) {
    pingsSentCounter_->add();
    // remaining=1: one more ping-pong follows — the double ping-pong.
    overlay_->sendIntralayer(node, peer, ToolMsg{PingMsg{node, 1, ns.epoch}},
                             12);
  }
  const auto sent = static_cast<std::int32_t>(peers.size());
  if (ns.trace) ns.trace->instant("pings", "consistent", "sent", sent);
  ns.outstandingPeers = sent;
  if (ns.outstandingPeers == 0) maybeAckConsistentState(node);
}

void DistributedTool::maybeAckConsistentState(NodeId node) {
  NodeState& ns = *nodes_[static_cast<std::size_t>(node)];
  if (ns.trace) {
    ns.trace->instant("ackConsistentState", "consistent", "epoch", ns.epoch);
  }
  const ToolMsg ack{AckConsistentStateMsg{ns.epoch, 1}};
  if (topology_.isRoot(node)) {
    overlay_->sendIntralayer(node, node, ack, 12);
  } else {
    overlay_->sendUp(node, ack, 12);
  }
}

void DistributedTool::handleRootAllAcked() {
  syncEnd_ = engine_.now();
  if (rootTrack_) {
    rootTrack_->spanEnd("sync", "detect");
    rootTrack_->spanBegin("gather", "detect");
  }
  // baseEpoch names the last round the root fully integrated; trackers whose
  // previous reply matches it send deltas, everyone else replies in full.
  // Pure hierarchical rounds never integrate raw conditions, so the base
  // stays 0 there (no tracker consults it anyway — the raw path is off).
  const std::uint32_t base = config_.incrementalGather && rawPathActive()
                                 ? lastIntegratedEpoch_
                                 : 0;
  broadcastDown(topology_.root(), ToolMsg{RequestWaitsMsg{epoch_, base}});
}

void DistributedTool::handleWaitInfoAtRoot(WaitInfoMsg&& msg) {
  if (!detectionInProgress_ || msg.epoch != epoch_) return;  // torn round
  gatheredUnchanged_ += msg.unchangedCount;
  // A process appearing in the delta invalidates its persisted active
  // sends/wildcards (refilled below); elided processes keep theirs.
  for (wfg::NodeConditions& cond : msg.conditions) {
    const auto p = static_cast<std::size_t>(cond.proc);
    procSends_[p].clear();
    procWildcards_[p].clear();
    ++gatheredProcs_;
    incremental_->stage(std::move(cond));
  }
  for (const ActiveSendInfo& s : msg.activeSends) {
    procSends_[static_cast<std::size_t>(s.op.proc)].push_back(s);
  }
  for (const ActiveWildcardInfo& w : msg.activeWildcards) {
    procWildcards_[static_cast<std::size_t>(w.op.proc)].push_back(w);
  }
  maybeFinishDetection();
}

std::uint32_t DistributedTool::expectedCondensedAtRoot() const {
  // One condensed message per *live* root child (orphans adopted by the
  // root report directly); a single-node tree (root doubles as first layer)
  // self-delivers exactly one.
  const auto& children =
      nodes_[static_cast<std::size_t>(topology_.root())]->liveChildren;
  return children.empty() ? 1u : static_cast<std::uint32_t>(children.size());
}

void DistributedTool::handleCondensedAtRoot(CondensedWaitInfoMsg&& msg) {
  if (!detectionInProgress_ || msg.wait.epoch != epoch_) return;  // torn round
  if (!rawPathActive()) {
    // Pure mode: the §3.3 facts arrive here. Condensed replies are full
    // (no delta), so refresh the whole range they cover.
    for (ProcId p = msg.wait.cond.procLo; p < msg.wait.cond.procHi; ++p) {
      procSends_[static_cast<std::size_t>(p)].clear();
      procWildcards_[static_cast<std::size_t>(p)].clear();
    }
    for (const ActiveSendInfo& s : msg.activeSends) {
      procSends_[static_cast<std::size_t>(s.op.proc)].push_back(s);
    }
    for (const ActiveWildcardInfo& w : msg.activeWildcards) {
      procWildcards_[static_cast<std::size_t>(w.op.proc)].push_back(w);
    }
  }
  rootCondFinished_ += msg.wait.finishedCount;
  rootCondensations_.push_back(std::move(msg.wait.cond));
  maybeFinishDetection();
}

void DistributedTool::maybeFinishDetection() {
  if (rawPathActive() &&
      gatheredProcs_ + gatheredUnchanged_ !=
          static_cast<std::uint32_t>(runtime_.procCount())) {
    return;
  }
  if (hierPathActive() &&
      rootCondensations_.size() != expectedCondensedAtRoot()) {
    return;
  }
  gatherEnd_ = engine_.now();
  finishDetection();
}

void DistributedTool::finishDetection() {
  if (rootTrack_) rootTrack_->spanEnd("gather", "detect");
  if (!rawPathActive()) {
    finishHierarchicalDetection();
    return;
  }
  using Clock = std::chrono::steady_clock;
  const wfg::IncrementalWfg::RoundResult round =
      incremental_->commit(/*forceFull=*/!config_.incrementalGather);
  const auto t2 = Clock::now();
  wfg::Report report = wfg::makeReport(incremental_->graph(), round.check);
  const auto t3 = Clock::now();
  // Only deterministic arguments here: delta sizes, prune counts, verdicts.
  // The round's wall-clock compute times (buildNs/checkNs) must never enter
  // the trace — they differ across runs and thread counts.
  if (rootTrack_) {
    rootTrack_->instant("wfgApply", "detect", "repruned",
                        round.repruned, "seedReleased", round.seedReleased);
    rootTrack_->instant("check", "detect", "deadlock",
                        round.check.deadlock ? 1 : 0, "warmStart",
                        round.warmStart ? 1 : 0);
    rootTrack_->instant("report", "detect", "dotBytes",
                        static_cast<std::int64_t>(report.dotBytes));
  }

  report.times.synchronizationNs = syncEnd_ - syncStart_;
  report.times.wfgGatherNs = gatherEnd_ - syncEnd_;
  report.times.graphBuildNs = round.buildNs;
  report.times.deadlockCheckNs = round.checkNs;
  report.times.outputGenerationNs = wallNs(t2, t3);
  report.incremental.incremental = config_.incrementalGather;
  report.incremental.warmStart = round.warmStart;
  report.incremental.changedConditions = gatheredProcs_;
  report.incremental.unchangedConditions = gatheredUnchanged_;
  report.incremental.reprunedNodes = round.repruned;
  report.incremental.seedReleased = round.seedReleased;
  report.incremental.gatherBytesSaved = gatherSavedBytes_->value();

  if (config_.verifyIncremental) {
    // Side-by-side reference: full rebuild + cold check over the same
    // pristine conditions must agree in verdict, deadlock set, cycle, and
    // DOT rendering.
    wfg::WaitForGraph full = incremental_->buildFullGraph();
    const wfg::CheckResult cold = full.check();
    const bool agree =
        cold.deadlock == round.check.deadlock &&
        cold.deadlocked == round.check.deadlocked &&
        cold.cycle == round.check.cycle &&
        full.toDot(cold.deadlocked) ==
            incremental_->graph().toDot(round.check.deadlocked);
    if (!agree) ++verifyDivergences_;
  }

  std::optional<wfg::HierarchicalResult> hier;
  if (hierPathActive()) {
    hier.emplace(resolveHierarchical());
    if (config_.verifyHierarchical) {
      // The condensed path must reproduce the raw root check exactly:
      // verdict, deadlocked set, the released bitmap (complement of the
      // deadlocked set over all processes), and the finished count summed
      // up the tree.
      bool agree = hier->deadlock == round.check.deadlock &&
                   hier->deadlocked == round.check.deadlocked &&
                   rootCondFinished_ == incremental_->finishedCount();
      if (agree) {
        for (ProcId p = 0; p < runtime_.procCount(); ++p) {
          const bool dead = std::binary_search(round.check.deadlocked.begin(),
                                               round.check.deadlocked.end(), p);
          if (hier->released[static_cast<std::size_t>(p)] == dead) {
            agree = false;
            break;
          }
        }
      }
      if (!agree) ++hierarchicalDivergences_;
    }
  }

  noteReported(round.check.deadlocked);
  if (hier) noteReported(hier->deadlocked);

  RoundStats stats;
  stats.epoch = epoch_;
  stats.changed = gatheredProcs_;
  stats.unchanged = gatheredUnchanged_;
  stats.fullRebuild = round.fullRebuild;
  stats.warmStart = round.warmStart;
  stats.repruned = round.repruned;
  stats.seedReleased = round.seedReleased;
  stats.syncNs = static_cast<std::uint64_t>(syncEnd_ - syncStart_);
  stats.gatherNs = static_cast<std::uint64_t>(gatherEnd_ - syncEnd_);
  stats.buildNs = round.buildNs;
  stats.checkNs = round.checkNs;
  stats.pingsSent = pingsSentCounter_->value() - lastPingsSent_;
  stats.deadlock = round.check.deadlock;
  if (hier) {
    stats.hierarchical = true;
    stats.boundaryNodes = hier->boundaryNodes;
    stats.boundaryArcs = hier->boundaryArcs;
    stats.boundaryTargets = hier->boundaryTargets;
  }
  lastPingsSent_ = pingsSentCounter_->value();
  roundStats_.push_back(stats);

  report_ = std::move(report);
  lastIntegratedEpoch_ = epoch_;
  periodicStopped_ =
      incremental_->finishedCount() ==
      static_cast<std::uint32_t>(runtime_.procCount());

  runUnexpectedMatchCheck();
  detectionInProgress_ = false;
  ++detectionsCompleted_;
  if (ohSyncNs_ != nullptr) {
    ohSyncNs_->add(stats.syncNs);
    ohGatherNs_->add(stats.gatherNs);
  }
  requestTimelineCapture(stats.epoch);
  if (rootTrack_) {
    rootTrack_->spanEnd("detection", "detect", "changed",
                        static_cast<std::int64_t>(gatheredProcs_));
  }
}

void DistributedTool::runUnexpectedMatchCheck() {
  // Unexpected-match check (paper §3.3): cross every persisted active
  // wildcard receive with every persisted active send to its process, in
  // ascending process order.
  unexpectedMatches_.clear();
  for (const auto& wildcards : procWildcards_) {
    for (const ActiveWildcardInfo& w : wildcards) {
      for (const auto& sends : procSends_) {
        for (const ActiveSendInfo& s : sends) {
          if (s.dest != w.op.proc || s.comm != w.comm) continue;
          if (w.tag != mpi::kAnyTag && w.tag != s.tag) continue;
          if (s.op.proc == w.op.proc) continue;
          // Paper §3.3: unexpected means matching bound the wildcard to a
          // *different* send that is not active in this state. A
          // still-unmatched wildcard facing an active send is a pending
          // (normal) match.
          if (w.matched && w.matchedSend != s.op) {
            unexpectedMatches_.push_back(
                UnexpectedMatchFact{w.op, s.op, w.matched, w.matchedSend});
          }
        }
      }
    }
  }
}

wfg::HierarchicalResult DistributedTool::resolveHierarchical() {
  // Children send independently; restore the deterministic range order
  // before resolving (ranges are disjoint and contiguous over [0, p)).
  std::sort(rootCondensations_.begin(), rootCondensations_.end(),
            [](const wfg::Condensation& a, const wfg::Condensation& b) {
              return a.procLo < b.procLo;
            });
  wfg::HierarchicalResult hier = wfg::resolveAtRoot(rootCondensations_);
  rootCondensations_.clear();
  return hier;
}

void DistributedTool::finishHierarchicalDetection() {
  pendingHier_.emplace(resolveHierarchical());
  if (rootTrack_) {
    rootTrack_->instant(
        "boundaryCheck", "detect", "nodes",
        static_cast<std::int64_t>(pendingHier_->boundaryNodes), "arcs",
        static_cast<std::int64_t>(pendingHier_->boundaryArcs));
  }
  if (!pendingHier_->deadlock) {
    completeHierarchicalRound(wfg::WaitForGraph(runtime_.procCount()));
    return;
  }
  // Deadlock: reconstruct the report detail. Only the deadlocked processes'
  // conditions are fetched — they are permanently blocked, so their
  // unsatisfiable conditions are stable even though the trackers resumed
  // after the consistent cut (DESIGN.md §13).
  if (rootTrack_) rootTrack_->spanBegin("detail", "detect");
  broadcastDown(topology_.root(), ToolMsg{DeadlockDetailRequestMsg{
                                      epoch_, pendingHier_->deadlocked}});
}

void DistributedTool::handleDeadlockDetailAtRoot(DeadlockDetailMsg&& msg) {
  if (!detectionInProgress_ || msg.epoch != epoch_) return;  // torn round
  std::move(msg.conditions.begin(), msg.conditions.end(),
            std::back_inserter(detailConds_));
  if (++detailMsgsAtRoot_ != expectedCondensedAtRoot()) return;
  if (rootTrack_) rootTrack_->spanEnd("detail", "detect");
  wfg::WaitForGraph graph(runtime_.procCount());
  for (wfg::NodeConditions& cond : detailConds_) {
    graph.setNode(std::move(cond));
  }
  detailConds_.clear();
  completeHierarchicalRound(std::move(graph));
}

void DistributedTool::completeHierarchicalRound(
    wfg::WaitForGraph&& detailGraph) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const wfg::HierarchicalResult& hier = *pendingHier_;
  noteReported(hier.deadlocked);
  wfg::CheckResult check;
  check.deadlock = hier.deadlock;
  check.deadlocked = hier.deadlocked;
  // The root never materialized the full graph; the honest work figure is
  // the boundary it actually checked.
  check.arcCount = hier.boundaryArcs;
  if (hier.deadlock) {
    // Same-wave collective targets among the reconstructed conditions prune
    // exactly as on the full graph: both endpoints of every deadlocked-to-
    // deadlocked arc carry their wave headers, and the report restricts
    // itself to deadlocked processes.
    detailGraph.pruneCollectiveCoWaiters();
    check.cycle = wfg::findCycle(detailGraph, hier.released, hier.deadlocked);
  }
  const auto t1 = Clock::now();
  wfg::Report report = wfg::makeReport(detailGraph, check);
  const auto t2 = Clock::now();
  report.times.synchronizationNs = syncEnd_ - syncStart_;
  report.times.wfgGatherNs = gatherEnd_ - syncEnd_;
  report.times.graphBuildNs = 0;
  report.times.deadlockCheckNs = wallNs(t0, t1);
  report.times.outputGenerationNs = wallNs(t1, t2);
  report.incremental.incremental = false;

  RoundStats stats;
  stats.epoch = epoch_;
  stats.syncNs = static_cast<std::uint64_t>(syncEnd_ - syncStart_);
  stats.gatherNs = static_cast<std::uint64_t>(gatherEnd_ - syncEnd_);
  stats.checkNs = wallNs(t0, t1);
  stats.pingsSent = pingsSentCounter_->value() - lastPingsSent_;
  stats.deadlock = hier.deadlock;
  stats.hierarchical = true;
  stats.boundaryNodes = hier.boundaryNodes;
  stats.boundaryArcs = hier.boundaryArcs;
  stats.boundaryTargets = hier.boundaryTargets;
  lastPingsSent_ = pingsSentCounter_->value();
  roundStats_.push_back(stats);

  report_ = std::move(report);
  periodicStopped_ =
      rootCondFinished_ == static_cast<std::uint32_t>(runtime_.procCount());
  runUnexpectedMatchCheck();
  pendingHier_.reset();
  detectionInProgress_ = false;
  ++detectionsCompleted_;
  if (ohSyncNs_ != nullptr) {
    ohSyncNs_->add(stats.syncNs);
    ohGatherNs_->add(stats.gatherNs);
  }
  requestTimelineCapture(stats.epoch);
  if (rootTrack_) {
    rootTrack_->spanEnd("detection", "detect", "boundary",
                        static_cast<std::int64_t>(stats.boundaryNodes));
  }
}

void DistributedTool::noteReported(
    const std::vector<trace::ProcId>& deadlocked) {
  std::vector<trace::ProcId> merged;
  std::set_union(reportedDeadlocked_.begin(), reportedDeadlocked_.end(),
                 deadlocked.begin(), deadlocked.end(),
                 std::back_inserter(merged));
  reportedDeadlocked_ = std::move(merged);
}

void DistributedTool::attachTraceToReport() {
  if (!report_ || !report_->deadlock || config_.tracer == nullptr ||
      !config_.tracer->enabled()) {
    return;
  }
  std::vector<support::ProcBlockedProfile> profiles =
      support::attributeBlockedTime(
          *config_.tracer, static_cast<std::uint64_t>(engine_.now()),
          /*tailCount=*/16);
  std::vector<support::ProcBlockedProfile> deadlocked;
  for (support::ProcBlockedProfile& profile : profiles) {
    const trace::ProcId proc = profile.proc;
    if (std::find(report_->check.deadlocked.begin(),
                  report_->check.deadlocked.end(),
                  proc) != report_->check.deadlocked.end()) {
      deadlocked.push_back(std::move(profile));
    }
  }
  wfg::appendWaitHistory(*report_, deadlocked);
}

// --- Live telemetry plane (DESIGN.md §16) --------------------------------------

void DistributedTool::requestTimelineCapture(std::uint32_t epoch) {
  if (!timeline_ || timelineCapturePending_) return;
  timelineCapturePending_ = true;
  // Snapshotting the registry from inside an event would race with other
  // shards; the next cut is the earliest deterministic single-threaded
  // window, and its placement depends only on the schedule, never on the
  // worker count — so the timeline is byte-identical across --threads 1..N.
  engine_.atNextCut([this, epoch](sim::Time now) {
    timelineCapturePending_ = false;
    refreshDerivedMetrics();
    timeline_->capture(static_cast<std::int64_t>(now),
                       support::format("round %u", epoch));
  });
}

HealthBeatRow DistributedTool::makeHealthRow(NodeId node) {
  NodeState& ns = *nodes_[static_cast<std::size_t>(node)];
  HealthBeatRow row;
  row.node = node;
  row.beatSeq = ++ns.beatSeq;
  row.sampledAtNs = static_cast<std::uint64_t>(engine_.now());
  row.lastEpoch = ns.epoch;
  row.queueDepth = static_cast<std::uint32_t>(overlay_->nodeQueueDepth(node));
  row.maxQueueDepth =
      static_cast<std::uint32_t>(overlay_->nodeMaxQueueDepth(node));
  row.retransmitBacklog = overlay_->nodeRetransmitBacklog(node);
  row.condensationNodes = ns.lastCondNodes;
  row.resyncedOps = ns.resyncedOps;
  row.deliveredMsgs = ns.deliveredMsgs;
  return row;
}

void DistributedTool::onHealthBeat(NodeId node) {
  if (overlay_->isCrashed(node)) return;  // dead nodes stop beating
  // A paused node skips sending but keeps its timer: the beat resumes once
  // the window passes — the flap case the staleness sweep must tolerate.
  const auto now = static_cast<std::uint64_t>(engine_.now());
  const bool paused = node == config_.pauseHealthBeatNode &&
                      now >= config_.pauseBeatFrom && now < config_.pauseBeatTo;
  if (!paused) {
    healthBeatsSent_->add();
    HealthBeatMsg msg;
    msg.rows.push_back(makeHealthRow(node));
    if (topology_.isRoot(node)) {
      integrateHealthRows(msg.rows);
      sweepStaleHealth();  // the root's own tick doubles as the sweep
    } else {
      const std::size_t bytes = modeledSize(ToolMsg{msg});
      overlay_->sendUp(node, ToolMsg{std::move(msg)}, bytes);
    }
  } else if (topology_.isRoot(node)) {
    sweepStaleHealth();
  }
  // Cadence self-reschedule on this node's own LP: beats keep firing while
  // live work exists and silently stop once the run has truly drained.
  engine_.scheduleCadenceOn(overlay_->nodeLp(node),
                            engine_.now() + config_.healthBeatInterval,
                            [this, node] { onHealthBeat(node); });
}

void DistributedTool::integrateHealthRows(std::vector<HealthBeatRow>& rows) {
  const auto now = static_cast<std::uint64_t>(engine_.now());
  for (HealthBeatRow& row : rows) {
    healthRowsReceived_->add();
    NodeHealth& h = fleetHealth_[static_cast<std::size_t>(row.node)];
    h.last = row;
    h.arrivedAtNs = now;
    ++h.beatsSeen;
    h.everSeen = true;
  }
}

void DistributedTool::sweepStaleHealth() {
  const auto now = static_cast<std::uint64_t>(engine_.now());
  const auto threshold = static_cast<std::uint64_t>(
      kHealthStaleFactor * static_cast<double>(config_.healthBeatInterval));
  std::int64_t stale = 0;
  for (std::size_t n = 0; n < fleetHealth_.size(); ++n) {
    NodeHealth& h = fleetHealth_[n];
    const auto node = static_cast<NodeId>(n);
    // A node whose recovery already ran keeps its stale flag frozen:
    // exactly one flag transition per crash, and never a second
    // re-parenting run for the same victim.
    if (recoveredNodes_.count(node) != 0) {
      if (h.stale) ++stale;
      continue;
    }
    // arrivedAtNs stays 0 until the first row lands, so a node that never
    // reported is flagged once the threshold has elapsed from run start —
    // the injected-silent-node case the acceptance test exercises.
    const bool nowStale = now >= threshold && now - h.arrivedAtNs >= threshold;
    if (nowStale && !h.stale) {
      healthStaleFlags_->add();
    } else if (nowStale && h.stale && innerNodeEligible(node)) {
      // Confirm-then-act: stale across two consecutive sweeps. A node that
      // resumed beating between sweeps never reaches this branch.
      initiateRecovery(node);
    } else if (!nowStale && h.stale && healthFlapSuppressed_ != nullptr) {
      // Flagged last sweep but beating again: a flap, not a crash. Unflag
      // without ever starting a re-parenting run.
      healthFlapSuppressed_->add();
    }
    h.stale = nowStale;
    if (nowStale) ++stale;
  }
  healthStaleGauge_->set(stale);
}

std::uint32_t DistributedTool::staleNodeCount() const {
  std::uint32_t count = 0;
  for (const NodeHealth& h : fleetHealth_) count += h.stale ? 1 : 0;
  return count;
}

void DistributedTool::finalizeTelemetry() {
  if (!timeline_) return;
  refreshDerivedMetrics();
  timeline_->capture(static_cast<std::int64_t>(engine_.now()), "final");
}

std::string DistributedTool::statusJson(sim::Time now) const {
  // Every value below is virtual-clock or counted state; the round
  // wall-clock figures (buildNs/checkNs) are deliberately excluded — they
  // differ across runs and worker counts and would break byte-stability.
  std::string out = support::format(
      "{\"schema\": \"wst-status-v1\", \"time_ns\": %lld, \"procs\": %d, "
      "\"nodes\": %d, \"epoch\": %u, \"detections\": %u, "
      "\"detection_in_progress\": %s, \"deadlock\": %s",
      static_cast<long long>(now), runtime_.procCount(),
      topology_.nodeCount(), epoch_, detectionsCompleted_,
      detectionInProgress_ ? "true" : "false",
      deadlockFound() ? "true" : "false");

  out += ", \"rounds\": [";
  constexpr std::size_t kRoundTail = 8;
  const std::size_t first =
      roundStats_.size() > kRoundTail ? roundStats_.size() - kRoundTail : 0;
  for (std::size_t i = first; i < roundStats_.size(); ++i) {
    const RoundStats& r = roundStats_[i];
    out += support::format(
        "%s{\"epoch\": %u, \"changed\": %u, \"unchanged\": %u, "
        "\"sync_ns\": %llu, \"gather_ns\": %llu, \"deadlock\": %s, "
        "\"hierarchical\": %s, \"boundary_nodes\": %llu}",
        i == first ? "" : ", ", r.epoch, r.changed, r.unchanged,
        static_cast<unsigned long long>(r.syncNs),
        static_cast<unsigned long long>(r.gatherNs),
        r.deadlock ? "true" : "false", r.hierarchical ? "true" : "false",
        static_cast<unsigned long long>(r.boundaryNodes));
  }
  out += "]";

  out += support::format(", \"overhead\": {\"enabled\": %s",
                         procOverhead_.empty() ? "false" : "true");
  if (!procOverhead_.empty()) {
    std::uint64_t wrapper = 0;
    std::uint64_t sampled = 0;
    std::uint64_t creditWait = 0;
    for (const ProcOverhead& po : procOverhead_) {
      wrapper += po.wrapperNs;
      sampled += po.sampledNs;
      creditWait += po.creditWaitNs;
    }
    out += support::format(
        ", \"total\": {\"wrapper_ns\": %llu, \"sampled_ns\": %llu, "
        "\"credit_wait_ns\": %llu, \"sync_ns\": %llu, \"gather_ns\": %llu, "
        "\"resync_ns\": %llu}, \"per_proc\": [",
        static_cast<unsigned long long>(wrapper),
        static_cast<unsigned long long>(sampled),
        static_cast<unsigned long long>(creditWait),
        static_cast<unsigned long long>(ohSyncNs_->value()),
        static_cast<unsigned long long>(ohGatherNs_->value()),
        static_cast<unsigned long long>(ohResyncNs_->value()));
    for (std::size_t p = 0; p < procOverhead_.size(); ++p) {
      const ProcOverhead& po = procOverhead_[p];
      const std::uint64_t tracked =
          po.wrapperNs + po.sampledNs + po.creditWaitNs;
      const auto elapsed = static_cast<std::uint64_t>(now);
      const std::uint64_t appCompute =
          elapsed > tracked ? elapsed - tracked : 0;
      out += support::format(
          "%s{\"proc\": %zu, \"wrapper_ns\": %llu, \"sampled_ns\": %llu, "
          "\"credit_wait_ns\": %llu, \"app_compute_ns\": %llu}",
          p == 0 ? "" : ", ", p, static_cast<unsigned long long>(po.wrapperNs),
          static_cast<unsigned long long>(po.sampledNs),
          static_cast<unsigned long long>(po.creditWaitNs),
          static_cast<unsigned long long>(appCompute));
    }
    out += "]";
  }
  out += "}";

  out += support::format(
      ", \"health\": {\"enabled\": %s, \"interval_ns\": %lld, "
      "\"stale_nodes\": %u, \"recoveries\": %u, \"nodes\": [",
      fleetHealth_.empty() ? "false" : "true",
      static_cast<long long>(config_.healthBeatInterval), staleNodeCount(),
      recoveriesCompleted_);
  for (std::size_t n = 0; n < fleetHealth_.size(); ++n) {
    const NodeHealth& h = fleetHealth_[n];
    out += support::format(
        "%s{\"node\": %zu, \"stale\": %s, \"ever_seen\": %s, "
        "\"beats_seen\": %llu, \"arrived_at_ns\": %llu, "
        "\"sampled_at_ns\": %llu, \"last_epoch\": %u, \"queue_depth\": %u, "
        "\"max_queue_depth\": %u, \"retransmit_backlog\": %llu, "
        "\"condensation_nodes\": %llu, \"resynced_ops\": %llu, "
        "\"delivered_msgs\": %llu}",
        n == 0 ? "" : ", ", n, h.stale ? "true" : "false",
        h.everSeen ? "true" : "false",
        static_cast<unsigned long long>(h.beatsSeen),
        static_cast<unsigned long long>(h.arrivedAtNs),
        static_cast<unsigned long long>(h.last.sampledAtNs), h.last.lastEpoch,
        h.last.queueDepth, h.last.maxQueueDepth,
        static_cast<unsigned long long>(h.last.retransmitBacklog),
        static_cast<unsigned long long>(h.last.condensationNodes),
        static_cast<unsigned long long>(h.last.resyncedOps),
        static_cast<unsigned long long>(h.last.deliveredMsgs));
  }
  out += "]}";

  out += support::format(
      ", \"timeline\": {\"enabled\": %s, \"captured\": %llu, "
      "\"evicted\": %llu, \"points\": %zu}}",
      timeline_ ? "true" : "false",
      static_cast<unsigned long long>(timeline_ ? timeline_->captured() : 0),
      static_cast<unsigned long long>(timeline_ ? timeline_->evicted() : 0),
      timeline_ ? timeline_->size() : std::size_t{0});
  return out;
}

std::string DistributedTool::prometheusText(sim::Time now) {
  if (!timeline_) return std::string();
  refreshDerivedMetrics();
  return support::prometheusExposition(metrics_.snapshot(),
                                       static_cast<std::int64_t>(now));
}

void DistributedTool::attachTelemetryToReport() {
  if (!report_) return;
  const std::uint64_t dropped =
      config_.tracer != nullptr ? config_.tracer->totalDropped() : 0;
  const tbon::FaultStats faults = overlay_->faultStats();
  const bool haveFaults =
      faults.dropsInjected + faults.retransmits + faults.duplicatesDiscarded +
          faults.reordersBuffered >
      0;
  if (dropped == 0 && !haveFaults && fleetHealth_.empty()) return;

  const auto numRow = [](const char* label, std::uint64_t value) {
    return support::format("<tr><td>%s</td><td>%s</td></tr>\n", label,
                           support::withCommas(value).c_str());
  };
  std::string body;
  body += "<table border=\"1\"><tr><th>Signal</th><th>Value</th></tr>\n";
  body += numRow("Dropped trace events", dropped);
  body += numRow("Fault drops injected", faults.dropsInjected);
  body += numRow("Retransmits", faults.retransmits);
  body += numRow("Duplicates discarded", faults.duplicatesDiscarded);
  body += numRow("Reorders buffered", faults.reordersBuffered);
  body += "</table>\n";

  if (!fleetHealth_.empty()) {
    body += support::format(
        "<p>Fleet health (beat interval %s ns): %u stale node(s).</p>\n",
        support::withCommas(
            static_cast<std::uint64_t>(config_.healthBeatInterval))
            .c_str(),
        staleNodeCount());
    body += "<table border=\"1\"><tr><th>Node</th><th>State</th>"
            "<th>Beats</th><th>Last epoch</th><th>Queue depth (max)</th>"
            "<th>Retransmit backlog</th><th>Delivered</th></tr>\n";
    for (std::size_t n = 0; n < fleetHealth_.size(); ++n) {
      const NodeHealth& h = fleetHealth_[n];
      const char* state =
          h.stale ? "STALE" : (h.everSeen ? "ok" : "never reported");
      body += support::format(
          "<tr><td>%zu</td><td>%s</td><td>%s</td><td>%u</td>"
          "<td>%u (%u)</td><td>%s</td><td>%s</td></tr>\n",
          n, state, support::withCommas(h.beatsSeen).c_str(),
          h.last.lastEpoch, h.last.queueDepth, h.last.maxQueueDepth,
          support::withCommas(h.last.retransmitBacklog).c_str(),
          support::withCommas(h.last.deliveredMsgs).c_str());
    }
    body += "</table>\n";
  }
  wfg::appendHtmlSection(*report_, "Telemetry", body);
}

}  // namespace wst::must
