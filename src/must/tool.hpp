// The integrated runtime deadlock detection tool (paper Figure 1(b)).
//
// DistributedTool attaches to a simulated MPI runtime as an interposer and
// assembles the full pipeline:
//
//   application ranks --events--> first tool layer (P2PMatch + WaitState,
//   one DistributedTracker per node, intralayer passSend/recvActive/ack)
//   --collectiveReady/Ack--> tree/root (CollectiveMatch) --timeout-->
//   consistent-state protocol --> requestWaits --> WFG build + deadlock
//   check + DOT/HTML output at the root (WfgCheck).
//
// The *centralized baseline* of the paper's evaluation (Figure 1(a),
// Figure 9) is the same tool instantiated with fanIn >= procCount: a single
// tool process hosts every rank, so all events and handshakes serialize
// through one node — exactly the scalability bottleneck the paper replaces.
//
// Timeout model: in a discrete-event simulation, "no tool events arrive for
// the configured timeout" is the moment the event queue drains while some
// process has not finalized (engine quiescence). An optional periodic
// timeout additionally triggers detection at fixed virtual-time intervals,
// which exercises intermediate (non-terminal) consistent states.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/certificate.hpp"
#include "mpi/proc.hpp"
#include "mpi/runtime.hpp"
#include "must/messages.hpp"
#include "must/runtime_comm_view.hpp"
#include "support/metrics.hpp"
#include "support/metrics_timeline.hpp"
#include "support/rng.hpp"
#include "tbon/overlay.hpp"
#include "tbon/topology.hpp"
#include "waitstate/distributed_tracker.hpp"
#include "wfg/incremental.hpp"
#include "wfg/partial.hpp"
#include "wfg/report.hpp"

namespace wst::must {

struct ToolConfig {
  std::int32_t fanIn = 4;
  trace::BlockingModel blockingModel = trace::BlockingModel::kConservative;

  tbon::OverlayConfig overlay{};

  /// Tool-node service costs per message class. The stress test of paper
  /// Figure 9 is dominated by these: wait-state messages cannot be
  /// aggregated (paper §4.2), so every one pays an immediate-send cost.
  sim::Duration newOpCost = 700;
  sim::Duration matchInfoCost = 250;
  sim::Duration intralayerCost = 900;
  sim::Duration collectiveMsgCost = 300;
  sim::Duration controlMsgCost = 250;

  /// Local overhead charged to an application rank per intercepted call
  /// (wrapper + event serialization).
  sim::Duration appEventCost = 150;

  /// Detect when the simulation quiesces with unfinished processes or a
  /// stalled analysis (the paper's timeout without an explicit clock).
  bool detectOnQuiescence = true;
  /// Additional periodic detection interval (0 disables). Exercises
  /// consistent-state snapshots of intermediate states.
  sim::Duration periodicDetection = 0;
  /// Randomize each periodic interval by an extra uniform [0, jitter]
  /// drawn from a root-LP RNG (deterministic per seed): detection rounds
  /// land at adversarial instants instead of a fixed cadence. Fuzzing only.
  sim::Duration detectionJitter = 0;
  std::uint64_t detectionJitterSeed = 1;
  /// Stop the periodic timer after this many rounds (0 = unbounded). The
  /// timer otherwise only stops on a deadlock report or when every process
  /// reported finished — a process blocked forever without forming a
  /// deadlock (e.g. a starved wildcard receive) would keep the simulation
  /// alive indefinitely. Fuzzed runs bound the rounds; the final
  /// quiescence-triggered detection still runs either way.
  std::uint32_t maxPeriodicRounds = 0;

  /// Test hook for the fuzzer's planted-bug demonstration (wst fuzz
  /// --inject-bug). 0 = off. 1 = the first-layer handler silently discards
  /// recvActiveAck messages that answer probes, so probe wait states never
  /// resolve — a realistic lost-protocol-message bug the differential
  /// oracle must catch and the shrinker must minimize. 2 = crash recovery
  /// skips the orphans' collective-contribution replay after re-parenting,
  /// so a wave whose contribution died with the crashed node never
  /// completes — the planted recovery bug of the crash-chaos campaign.
  /// Never enable outside tests.
  std::int32_t injectBug = 0;

  /// Prefer processing wait-state messages (passSend, recvActive,
  /// recvActiveAck, collectiveReady/Ack) over the bulk NewOp event stream —
  /// the paper's §6 proposal for reducing the trace-window footprint of
  /// high-call-rate applications (128.GAPgeofem). MatchInfo stays in the
  /// normal class: it shares the application channel with NewOp events and
  /// must not overtake them.
  bool prioritizeWaitState = false;

  /// Coalesce the wait-state hot path — passSend/recvActive/recvActiveAck
  /// on intralayer links and collectiveReady on tree-up links — into
  /// batched channel messages (waitStateBatch policy). Consistent-state
  /// control messages (request/ack, ping/pong) always bypass staging: they
  /// gate the detection timeout and must not wait for a flush interval.
  /// A bypass send flushes its link's staged batch first, so channel order
  /// is preserved and the double ping-pong still drains the link.
  bool batchWaitState = false;
  tbon::BatchConfig waitStateBatch{.maxMessages = 16,
                                   .maxBytes = 0,
                                   .flushInterval = 2'000,
                                   .amortizedCostFactor = 0.25};

  /// Bound of the per-channel consumed-send history kept for late probe
  /// resolution (0 = unbounded); see TrackerConfig::consumedHistory.
  std::size_t consumedHistory = 8;

  // --- Incremental detection rounds (DESIGN.md §10) --------------------------

  /// Delta wait-info gather: requestWaits carries the last epoch the root
  /// integrated; trackers reply only with conditions of processes whose
  /// wait-state version changed since their reply of that epoch (plus an
  /// unchanged count), and the root applies the delta to a persistent
  /// wait-for graph. Off = every round gathers and rebuilds everything.
  bool incrementalGather = true;
  /// Run the full rebuild + cold check next to every incremental round and
  /// count divergences in verdict, deadlock set, or DOT output.
  bool verifyIncremental = false;

  // --- Hierarchical in-tree check (DESIGN.md §13) ----------------------------

  /// Push the release fixpoint down the TBON: first-layer nodes condense
  /// their hosted processes' wait-for subgraph, inner nodes merge and
  /// re-condense their children's condensations, and the root resolves a
  /// graph of boundary nodes only — its per-round work is proportional to
  /// the boundary, not to p. Replaces the raw wait-info gather entirely; on
  /// deadlock a detail phase re-fetches only the deadlocked processes'
  /// conditions to reconstruct the DOT/cycle report.
  bool hierarchicalCheck = false;
  /// Run the hierarchical check next to the raw-gather root check and count
  /// divergences in verdict, deadlocked set, released set, or finished
  /// count. Implies the condensed path runs even if hierarchicalCheck is
  /// off (the raw path then still produces the report).
  bool verifyHierarchical = false;

  // --- Hybrid static/dynamic mode (DESIGN.md §15) ----------------------------

  /// Per-phase deadlock-freedom certificate from the static classifier
  /// (analysis::analyzeProgram), or null for pure dynamic tracking. When
  /// set, operations inside a rank's certified prefix are *sampled*: the
  /// wrapper counts them against the rank's watermark and ships nothing up
  /// the TBON. The first op past the watermark is preceded by a
  /// PhaseResyncMsg that fast-forwards the rank's tracker state over the
  /// prefix; tracking is fully dynamic from there on. The certificate must
  /// outlive the tool and match the runtime's process count.
  const analysis::Certificate* certificate = nullptr;
  /// Wrapper cost charged to an application rank for a sampled call (bump a
  /// counter, compare against the watermark — no serialization, no send).
  sim::Duration sampledEventCost = 25;

  /// Optional flight recorder (support/tracing.hpp). When set and enabled,
  /// the tool records wait-state message flows (emit -> handle, across
  /// nodes), detection-round phase spans, and consistent-state protocol
  /// events on per-node tracks. Null (or a disabled tracer) keeps every
  /// recording site on its pointer-check fast path.
  support::Tracer* tracer = nullptr;

  // --- Live telemetry plane (DESIGN.md §16) ----------------------------------

  /// Master switch for the per-round metric timeline and the overhead
  /// self-accounting buckets. Off (the default) keeps the wrapper hot path
  /// on a single predictable branch and registers no extra instruments, so
  /// metrics dumps and schedules are bit-identical to pre-telemetry runs.
  bool telemetry = false;

  /// Virtual-ns interval of the in-tree health beats (0 = no beats). Every
  /// TBON node periodically sends a HealthBeatRow toward the root on a
  /// cadence timer (sim::Scheduler::scheduleCadenceOn), so beats observe the
  /// run without keeping it alive; the root maintains the fleet health
  /// table and flags a node stale once no row from it arrived for
  /// kHealthStaleFactor intervals (tool.cpp).
  sim::Duration healthBeatInterval = 0;
  /// Test hook: this node never schedules its beat timer (a silent node the
  /// root must flag stale). -1 = none.
  tbon::NodeId muteHealthBeatNode = -1;
  /// Test hook: this node's beat timer fires but sends nothing while
  /// virtual time is inside [pauseBeatFrom, pauseBeatTo) — a slow node, not
  /// a dead one. Exercises the staleness-sweep flap path.
  tbon::NodeId pauseHealthBeatNode = -1;
  sim::Time pauseBeatFrom = 0;
  sim::Time pauseBeatTo = 0;

  // --- Crash-stop tolerance (DESIGN.md §17) ----------------------------------

  /// Crash-stop plan (tests / fuzzing): each entry kills one *inner* tool
  /// node (never the root, never a first-layer node) at a virtual time. The
  /// overlay drops everything addressed to the victim from then on; the
  /// root recovers by re-parenting the victim's children (DESIGN.md §17).
  /// The plan is root-visible static configuration — the process
  /// supervisor of a real deployment knows which container died.
  struct CrashPlanEntry {
    tbon::NodeId node = -1;
    sim::Time at = 0;
  };
  std::vector<CrashPlanEntry> crashPlan{};
};

class DistributedTool : public mpi::Interposer {
 public:
  DistributedTool(sim::Scheduler& engine, mpi::Runtime& runtime,
                  ToolConfig config);
  ~DistributedTool() override;

  /// Convenience: a centralized-baseline configuration (paper Fig. 1(a)).
  static ToolConfig centralizedConfig(std::int32_t procCount,
                                      ToolConfig base = {});

  // mpi::Interposer:
  Hold onEvent(const trace::Event& event) override;
  /// Phase-boundary marker (Proc::phase): free to the application, counted
  /// for observability ("tracker/phase_marks" lines up against the
  /// certificate's phase structure in the metrics dump).
  void onPhase(mpi::Rank rank, std::int32_t phase) override;

  // --- Results -------------------------------------------------------------

  /// Deadlock report of the last completed detection (if any ran).
  const std::optional<wfg::Report>& report() const { return report_; }
  bool deadlockFound() const { return report_ && report_->deadlock; }
  /// Every process that any detection round's check (raw or hierarchical)
  /// reported deadlocked, sorted. A deadlock is stable, so each of them
  /// must still be deadlocked when the run ends.
  const std::vector<trace::ProcId>& reportedDeadlocked() const {
    return reportedDeadlocked_;
  }
  std::uint32_t detectionsRun() const { return detectionsCompleted_; }

  /// Collective matching errors found at the root (kind/root mismatches).
  const std::vector<std::string>& usageErrors() const { return usageErrors_; }

  /// Unexpected matches (paper §3.3) found during the last detection round:
  /// a wildcard receive active at the consistent state could match an
  /// active send while point-to-point matching bound it elsewhere (or not
  /// at all). Signals that the conservative blocking model diverged from
  /// the MPI implementation's choices.
  struct UnexpectedMatchFact {
    trace::OpId wildcardRecv{};
    trace::OpId activeSend{};
    bool hadMatch = false;
    trace::OpId matchedSend{};
  };
  const std::vector<UnexpectedMatchFact>& unexpectedMatches() const {
    return unexpectedMatches_;
  }

  /// Per-detection-round statistics (delta sizes, warm-start behavior,
  /// pings) in completion order; drives the detection bench and the
  /// differential tests.
  struct RoundStats {
    std::uint32_t epoch = 0;
    std::uint32_t changed = 0;    // NodeConditions gathered this round
    std::uint32_t unchanged = 0;  // processes elided by the delta protocol
    bool fullRebuild = false;
    bool warmStart = false;
    std::uint32_t repruned = 0;
    std::uint32_t seedReleased = 0;
    std::uint64_t syncNs = 0;    // virtual: consistent-state sync
    std::uint64_t gatherNs = 0;  // virtual: wait-info gather
    std::uint64_t buildNs = 0;   // wall: delta apply + (re)prune
    std::uint64_t checkNs = 0;   // wall: (seeded) deadlock check
    std::uint64_t pingsSent = 0;
    bool deadlock = false;
    /// Hierarchical check (when the condensed path ran this round): the
    /// boundary nodes and residual clause target runs the root resolved —
    /// the root's actual per-round work unit.
    bool hierarchical = false;
    std::uint64_t boundaryNodes = 0;
    std::uint64_t boundaryArcs = 0;
    std::uint64_t boundaryTargets = 0;
  };
  const std::vector<RoundStats>& roundHistory() const { return roundStats_; }

  /// Rounds where the side-by-side full check disagreed with the
  /// incremental one (only counted with ToolConfig::verifyIncremental).
  std::uint32_t verifyDivergences() const { return verifyDivergences_; }

  /// Rounds where the hierarchical (condensed) check disagreed with the
  /// raw root check (only counted with ToolConfig::verifyHierarchical).
  std::uint32_t hierarchicalDivergences() const {
    return hierarchicalDivergences_;
  }

  // --- Introspection ---------------------------------------------------------

  const tbon::Topology& topology() const { return topology_; }
  tbon::Overlay<ToolMsg>& overlay() { return *overlay_; }
  const waitstate::DistributedTracker& tracker(tbon::NodeId node) const;
  bool analysisFinished() const;  // every tracker finished every rank
  std::uint64_t totalTransitions() const;
  std::size_t maxWindowSize() const;

  /// The tool's metrics registry: live overlay/tracker instruments plus
  /// per-kind delivered-message counters.
  support::MetricsRegistry& metrics() { return metrics_; }
  /// Snapshot derived statistics (overlay traffic per link class, queue
  /// depth, transitions, detections) into the registry and render the whole
  /// registry as one JSON object. Safe to call repeatedly.
  std::string metricsJson();

  /// Manually start a detection round (tests / ablations).
  void startDetection();

  /// Post-run: append per-process blocked-time attribution (by op kind and
  /// by peer) and flight-recorder tails of the deadlocked processes to the
  /// report's HTML. Reads app-proc tracks, which the main LP writes — call
  /// only after engine.run() returned (all LPs quiescent), never from inside
  /// a detection round. No-op without a tracer or a deadlock report.
  void attachTraceToReport();

  // --- Live telemetry plane (DESIGN.md §16) ----------------------------------

  /// Root-side view of one TBON node's health, fed by HealthBeatMsg rows.
  struct NodeHealth {
    HealthBeatRow last{};           // most recent row (default until one lands)
    std::uint64_t arrivedAtNs = 0;  // root virtual time of the last row
    std::uint64_t beatsSeen = 0;
    bool everSeen = false;
    bool stale = false;  // flagged by the root's staleness sweep
  };
  /// Fleet health table indexed by NodeId; empty unless health beats are
  /// enabled. Root-LP state — read after run() or from a cut.
  const std::vector<NodeHealth>& healthTable() const { return fleetHealth_; }
  std::uint32_t staleNodeCount() const;

  /// Crash recoveries completed (re-parenting + re-anchoring ran end to
  /// end). Root-LP state — read after run() or from a cut.
  std::uint32_t recoveriesCompleted() const { return recoveriesCompleted_; }
  /// The root's view of a node's current up-routing parent (topology parent
  /// until a recovery re-parented it).
  tbon::NodeId liveParentOf(tbon::NodeId node) const {
    return rootLiveParent_[static_cast<std::size_t>(node)];
  }

  /// Per-process virtual-time overhead buckets (telemetry mode): wrapper
  /// cost of fully tracked calls, sampled-call cost inside certified
  /// prefixes, and time spent blocked on tool backpressure credit. The rest
  /// of a process's elapsed virtual time is application compute.
  struct ProcOverhead {
    std::uint64_t wrapperNs = 0;
    std::uint64_t sampledNs = 0;
    std::uint64_t creditWaitNs = 0;
  };
  /// Empty unless ToolConfig::telemetry; app-LP state, read at cuts/post-run.
  const std::vector<ProcOverhead>& procOverhead() const {
    return procOverhead_;
  }

  /// Per-round metric time series (null unless ToolConfig::telemetry).
  const support::MetricsTimeline* timeline() const { return timeline_.get(); }

  /// Render the live status document (schema wst-status-v1) as of virtual
  /// time `now`: detection progress, recent rounds, overhead buckets, fleet
  /// health, timeline occupancy. Every value is virtual-clock or count
  /// state, so the document is byte-identical across worker counts when
  /// rendered from a cut or after run().
  std::string statusJson(sim::Time now) const;

  /// Prometheus text exposition of a fresh registry snapshot stamped
  /// `now` (empty without telemetry). Refreshes derived gauges, so call
  /// only from deterministic windows (cuts / post-run).
  std::string prometheusText(sim::Time now);

  /// Post-run: refresh derived gauges and append a final timeline point
  /// (label "final") at the engine's current virtual time. No-op without
  /// telemetry.
  void finalizeTelemetry();

  /// Post-run: append the telemetry section (dropped trace events, overlay
  /// fault/retransmit totals, fleet health table) to the report's HTML.
  /// No-op when no report exists or nothing noteworthy happened.
  void attachTelemetryToReport();

 private:
  struct NodeState;

  sim::Duration messageCost(tbon::NodeId node, const ToolMsg& msg) const;
  void handleMessage(tbon::NodeId node, ToolMsg&& msg);
  void handleAtFirstLayer(tbon::NodeId node, ToolMsg&& msg);
  void handleAtInner(tbon::NodeId node, ToolMsg&& msg);
  void handleCollectiveReady(tbon::NodeId node,
                             const waitstate::CollectiveReadyMsg& msg);
  void broadcastDown(tbon::NodeId from, const ToolMsg& msg);
  void rootCollectiveComplete(const waitstate::CollectiveReadyMsg& msg);

  // Consistent-state protocol.
  void handleRequestConsistentState(tbon::NodeId node, std::uint32_t epoch);
  void maybeAckConsistentState(tbon::NodeId node);
  void handleRootAllAcked();
  void handleWaitInfoAtRoot(WaitInfoMsg&& msg);
  void finishDetection();

  // Hierarchical check (DESIGN.md §13).
  bool hierPathActive() const {
    return config_.hierarchicalCheck || config_.verifyHierarchical;
  }
  bool rawPathActive() const {
    return !config_.hierarchicalCheck || config_.verifyHierarchical;
  }
  std::uint32_t expectedCondensedAtRoot() const;
  void handleCondensedAtRoot(CondensedWaitInfoMsg&& msg);
  /// Fires finishDetection once every active gather path completed at the
  /// root (raw wait-info and/or condensed replies).
  void maybeFinishDetection();
  /// Sort the child condensations and resolve the boundary graph.
  wfg::HierarchicalResult resolveHierarchical();
  /// Pure hierarchical round: resolve, then either finalize directly (no
  /// deadlock) or launch the deadlock-detail reconstruction phase.
  void finishHierarchicalDetection();
  void handleDeadlockDetailAtRoot(DeadlockDetailMsg&& msg);
  /// Finalize a pure hierarchical round into report/stats; `detailGraph`
  /// holds the deadlocked processes' reconstructed conditions (empty graph
  /// when no deadlock was found).
  void completeHierarchicalRound(wfg::WaitForGraph&& detailGraph);
  /// Merge one check's deadlocked set (sorted) into reportedDeadlocked_.
  void noteReported(const std::vector<trace::ProcId>& deadlocked);
  void runUnexpectedMatchCheck();
  void onQuiescence();
  void onPeriodic();

  // Crash recovery (DESIGN.md §17). Root-LP state machine: detect (crash
  // plan at quiescence/periodic ticks, or the staleness sweep when beats
  // run) -> re-parent orphans -> collect re-registrations + the adopter's
  // ack -> re-anchor (replay completed collective acks, restart any torn
  // detection round).
  void scheduleCrashPlan();
  bool maybeInitiateRecovery();
  void initiateRecovery(tbon::NodeId dead);
  void beginRecovery(tbon::NodeId dead);
  /// Apply an adoption on `node`'s state (drop the dead child, take the
  /// orphans, invalidate cached per-comm expectations).
  void applyAdoption(tbon::NodeId node, const AdoptMsg& msg);
  void maybeCompleteRecovery();
  void completeRecovery();
  /// Drop the torn round's partial root state without committing it; the
  /// restarted round re-gathers (leaves that already replied answer full,
  /// so no stale delta base survives).
  void abortTornRound();
  bool innerNodeEligible(tbon::NodeId node) const {
    return node >= 0 && !topology_.isRoot(node) &&
           !topology_.isFirstLayer(node);
  }

  // Telemetry plane (DESIGN.md §16).
  void refreshDerivedMetrics();
  /// Ask the scheduler for a timeline capture at the next deterministic cut
  /// (once per round; label carries the epoch). No-op without telemetry.
  void requestTimelineCapture(std::uint32_t epoch);
  HealthBeatRow makeHealthRow(tbon::NodeId node);
  void onHealthBeat(tbon::NodeId node);
  void integrateHealthRows(std::vector<HealthBeatRow>& rows);
  void sweepStaleHealth();
  /// Extra uniform [0, detectionJitter] delay for the periodic timer.
  sim::Duration periodicJitter();

  /// Flight-recorder hook run by the overlay on the receiving node's LP just
  /// before the handler: closes wait-state message flows and marks protocol
  /// deliveries.
  void traceDelivery(tbon::NodeId self, tbon::NodeId srcNode,
                     const ToolMsg& msg);
  support::TraceTrack* nodeTrack(tbon::NodeId node) const {
    return nodeTracks_.empty()
               ? nullptr
               : nodeTracks_[static_cast<std::size_t>(node)];
  }

  sim::Scheduler& engine_;
  mpi::Runtime& runtime_;
  ToolConfig config_;
  RuntimeCommView commView_;
  tbon::Topology topology_;
  support::MetricsRegistry metrics_;
  std::unique_ptr<tbon::Overlay<ToolMsg>> overlay_;
  /// Per-node flight-recorder tracks (empty when tracing is off); the root's
  /// track carries the detection-round phase spans.
  std::vector<support::TraceTrack*> nodeTracks_;
  support::TraceTrack* rootTrack_ = nullptr;
  std::vector<std::unique_ptr<NodeState>> nodes_;  // first-layer trackers
  std::size_t quiescenceHookId_ = 0;
  /// Delivered-message counters, indexed by ToolMsg variant alternative.
  std::array<support::Counter*, std::variant_size_v<ToolMsg>> msgCounters_{};

  // Root state.
  struct RootWaveState {
    /// Per-origin-subtree contributions (replace-on-rekey: a replayed
    /// contribution after crash recovery is idempotent).
    std::map<tbon::NodeId, std::uint32_t> contrib;
    bool kindRecorded = false;
    mpi::CollectiveKind kind = mpi::CollectiveKind::kBarrier;

    std::uint32_t readySum() const {
      std::uint32_t sum = 0;
      for (const auto& [origin, count] : contrib) sum += count;
      return sum;
    }
  };
  /// Hash for (comm, wave) keys — collective bookkeeping is pure point
  /// lookup/erase (never iterated), so unordered maps carry no ordering
  /// dependency into the output.
  struct CommWaveHash {
    std::size_t operator()(
        const std::pair<mpi::CommId, std::uint32_t>& key) const {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.first))
           << 32) |
          key.second);
    }
  };
  std::unordered_map<std::pair<mpi::CommId, std::uint32_t>, RootWaveState,
                     CommWaveHash>
      rootWaves_;
  /// Cached |group(comm)| — communicator groups are immutable, so the size
  /// is resolved once per comm instead of once per collectiveReady message.
  std::unordered_map<mpi::CommId, std::uint32_t> rootGroupSizes_;
  /// Waves the root completed and acked, kept so recovery can replay the
  /// ack toward a subtree that lost it (ordered: the replay order must be
  /// deterministic across worker counts).
  std::map<std::pair<mpi::CommId, std::uint32_t>, mpi::CollectiveKind>
      completedWaves_;
  std::vector<std::string> usageErrors_;

  // Crash-recovery state (root LP, DESIGN.md §17).
  struct RecoveryState {
    tbon::NodeId dead = -1;
    tbon::NodeId parent = -1;   // the dead node's live parent at crash time
    tbon::NodeId adopter = -1;  // parent, or a sibling when fan-in bound hit
    std::uint32_t expectedReRegisters = 0;
    std::uint32_t reRegisters = 0;
    std::uint32_t expectedAdoptAcks = 0;  // 2 when a sibling adopts (the old
    std::uint32_t adoptAcks = 0;          // parent still drops the dead child)
  };
  std::optional<RecoveryState> recovery_;
  std::vector<tbon::NodeId> pendingRecoveries_;  // crashes queued behind one
  std::set<tbon::NodeId> recoveredNodes_;  // recovery initiated (once each)
  std::uint32_t recoveriesCompleted_ = 0;
  /// Root's mirror of the live tree (node-local routing state lives on the
  /// nodes themselves; the root plans re-parenting against this view).
  std::vector<tbon::NodeId> rootLiveParent_;
  std::vector<std::vector<tbon::NodeId>> rootLiveChildren_;
  /// Crashed nodes whose recovery completed: their (now dead) contributions
  /// are filtered out of collective aggregation at the root.
  std::set<tbon::NodeId> rootDeadNodes_;

  // Detection round state (root).
  std::uint32_t epoch_ = 0;
  bool detectionInProgress_ = false;
  std::uint32_t detectionsCompleted_ = 0;
  std::uint32_t quiescenceDetections_ = 0;
  std::uint32_t acksAtRoot_ = 0;
  std::vector<UnexpectedMatchFact> unexpectedMatches_;
  std::uint32_t gatheredProcs_ = 0;
  std::uint32_t gatheredUnchanged_ = 0;
  sim::Time syncStart_ = 0;
  sim::Time syncEnd_ = 0;
  sim::Time gatherEnd_ = 0;
  std::optional<wfg::Report> report_;
  std::vector<trace::ProcId> reportedDeadlocked_;

  // Incremental detection state (root).
  std::optional<wfg::IncrementalWfg> incremental_;
  /// Epoch of the last fully integrated round; requestWaits carries it as
  /// the delta base (0 = none yet, forces a full gather).
  std::uint32_t lastIntegratedEpoch_ = 0;
  /// Latest active sends / wildcard receives per process, kept across
  /// rounds so delta replies only carry entries of changed processes.
  /// Cleared-and-refilled per changed process; capacity persists.
  std::vector<std::vector<ActiveSendInfo>> procSends_;
  std::vector<std::vector<ActiveWildcardInfo>> procWildcards_;
  /// Periodic detection stops once a round gathers "finished" from every
  /// process — derived purely from root-LP-local gather state so the
  /// periodic timer never reads other LPs' runtime state.
  bool periodicStopped_ = false;
  std::uint32_t periodicRounds_ = 0;
  /// Jitters the periodic detection timer; only ever touched on the root
  /// LP, so the draw order (and thus the schedule) is deterministic.
  support::Rng periodicRng_{1};
  std::uint32_t verifyDivergences_ = 0;
  std::vector<RoundStats> roundStats_;

  // Hierarchical check state (root).
  std::vector<wfg::Condensation> rootCondensations_;
  std::uint32_t rootCondFinished_ = 0;
  std::optional<wfg::HierarchicalResult> pendingHier_;
  std::vector<wfg::NodeConditions> detailConds_;
  std::uint32_t detailMsgsAtRoot_ = 0;
  std::uint32_t hierarchicalDivergences_ = 0;

  // Hybrid sampling state: per-rank watermark (from the certificate) and
  // suppressed-record count; the resync fires when the count reaches the
  // watermark (timestamps are dense, so that happens exactly once).
  std::vector<trace::LocalTs> sampleUntil_;

  // Unified suppressed-message accounting (satellite of DESIGN.md §15):
  // every layer that elides tracker messages counts them here, per layer
  // and in total, so savings are comparable against one baseline.
  support::Counter* suppressedTotal_ = nullptr;
  support::Counter* suppressedHybrid_ = nullptr;
  support::Counter* suppressedIncremental_ = nullptr;
  support::Counter* certifiedOpsCounter_ = nullptr;
  support::Counter* phaseMarksCounter_ = nullptr;

  // Live instruments for the incremental pipeline.
  support::Counter* pingsSentCounter_ = nullptr;
  support::Counter* gatherSavedBytes_ = nullptr;
  support::Counter* mergeSavedBytes_ = nullptr;
  support::Histogram* waitinfoFanin_ = nullptr;
  std::uint64_t lastPingsSent_ = 0;

  // Telemetry plane (DESIGN.md §16). The timeline and overhead instruments
  // exist only with ToolConfig::telemetry, the health members only with
  // beats enabled, so disabled runs register nothing and change no output.
  std::unique_ptr<support::MetricsTimeline> timeline_;
  bool timelineCapturePending_ = false;  // root-LP state
  std::vector<NodeHealth> fleetHealth_;  // root-LP state
  std::vector<ProcOverhead> procOverhead_;  // app-LP state; empty = off
  support::Counter* ohWrapperNs_ = nullptr;
  support::Counter* ohSampledNs_ = nullptr;
  support::Counter* ohCreditWaitNs_ = nullptr;
  support::Counter* ohSyncNs_ = nullptr;
  support::Counter* ohGatherNs_ = nullptr;
  support::Counter* ohResyncNs_ = nullptr;
  support::Counter* healthBeatsSent_ = nullptr;
  support::Counter* healthRowsReceived_ = nullptr;
  support::Counter* healthStaleFlags_ = nullptr;
  support::Gauge* healthStaleGauge_ = nullptr;

  // Crash-recovery instruments (registered when beats run or a crash plan
  // exists; null otherwise so disabled runs register nothing).
  support::Counter* healthFlapSuppressed_ = nullptr;
  support::Counter* healthReparentRuns_ = nullptr;
  support::Counter* healthReackWaves_ = nullptr;
};

}  // namespace wst::must
