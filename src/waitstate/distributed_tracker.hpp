// Distributed wait state tracking — the paper's core contribution (§4).
//
// One DistributedTracker runs on every first-layer TBON node and owns the
// slice l_{procLo} .. l_{procHi-1} of the global transition-system state. It
// implements the handler functions of paper Figure 7 (newOp, activate,
// handlePassSend, handleRecvActive, handleRecvActiveAck,
// handleCollectiveAck) plus the pieces the paper describes in prose:
// distributed point-to-point matching with wildcard resolution from observed
// execution, probe handshakes, completion operations (rule 4), bounded
// trace windows (§4.2), and the stop/resume hooks of the consistent-state
// protocol (§5).
//
// The tracker is deliberately TBON-agnostic: all outgoing communication goes
// through the Comms interface (routed by *destination process*; the tool
// layer maps processes to nodes), which lets unit tests drive pairs of
// trackers directly and assert on every message.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "support/metrics.hpp"
#include "trace/event.hpp"
#include "trace/op.hpp"
#include "waitstate/comm_view.hpp"
#include "waitstate/messages.hpp"
#include "wfg/graph.hpp"

namespace wst::support {
class TraceTrack;
}  // namespace wst::support

namespace wst::waitstate {

/// Outgoing communication of a tracker. Implementations route by process:
/// the node hosting `destProc` / `sendProc` / `recvProc` receives the
/// message; collectiveReady flows towards the TBON root.
class Comms {
 public:
  virtual ~Comms() = default;
  virtual void passSend(const PassSendMsg& msg) = 0;
  virtual void recvActive(trace::ProcId sendProc, const RecvActiveMsg& msg) = 0;
  virtual void recvActiveAck(trace::ProcId recvProc,
                             const RecvActiveAckMsg& msg) = 0;
  virtual void collectiveReady(const CollectiveReadyMsg& msg) = 0;
};

struct TrackerConfig {
  trace::BlockingModel blockingModel = trace::BlockingModel::kConservative;
  mpi::Bytes eagerThreshold = 4096;
  /// Per-channel history of consumed sends kept for late probe resolution
  /// (paper §4: probes learn their matched send from observed execution,
  /// which may arrive long after the send was consumed by its receive).
  /// 0 = unbounded. Evictions are counted in `metrics` — a nonzero
  /// tracker/consumed_evictions with unresolved probes means the bound is
  /// too small for the workload's probe latency.
  std::size_t consumedHistory = 8;
  /// Optional metrics sink (shared across trackers; counters aggregate).
  support::MetricsRegistry* metrics = nullptr;
  /// Optional flight-recorder track of the hosting tool node (written only
  /// from that node's LP). Null disables tracker-level trace events.
  support::TraceTrack* trace = nullptr;
};

class DistributedTracker {
 public:
  DistributedTracker(trace::ProcId procLo, trace::ProcId procHi, Comms& comms,
                     const CommView& comms_view, TrackerConfig config = {});

  trace::ProcId procLo() const { return procLo_; }
  trace::ProcId procHi() const { return procHi_; }
  bool hosts(trace::ProcId proc) const {
    return proc >= procLo_ && proc < procHi_;
  }

  // --- Inputs (called in channel arrival order) ------------------------------

  /// An MPI call record arrived from a hosted application process.
  void onNewOp(const trace::Record& rec);
  /// Wildcard matching decision observed from the MPI implementation.
  void onMatchInfo(const trace::MatchInfoEvent& info);
  void onPassSend(const PassSendMsg& msg);
  void onRecvActive(const RecvActiveMsg& msg);
  void onRecvActiveAck(const RecvActiveAckMsg& msg);
  void onCollectiveAck(const CollectiveAckMsg& msg);

  /// Hybrid static/dynamic mode: jump a hosted process's state over a
  /// statically certified prefix (DESIGN.md §15). The tool calls this when
  /// the process's PhaseResyncMsg arrives, i.e. right before the first
  /// tracked (post-prefix) operation: the process executed `opCount`
  /// records that were sampled instead of shipped, all of them matched and
  /// completed within the prefix, including `worldCollectives` collective
  /// waves on MPI_COMM_WORLD. The tracker must still be pristine for the
  /// process — suppression is a prefix, so no tracked op can precede it.
  void fastForward(trace::ProcId proc, trace::LocalTs opCount,
                   std::uint32_t worldCollectives);

  // --- Consistent-state protocol support (paper §5) --------------------------

  /// Stop applying transitions; message handling continues. Captures which
  /// processes had an *active* (arrived) operation at the freeze: operations
  /// that only arrive during the stop belong to the future of the cut — the
  /// double ping-pong has not flushed their handshakes — so waitConditions
  /// reports their processes as running (sound: a deadlock that existed at
  /// the cut consists of operations active before it; one forming during
  /// the protocol is caught by the next detection round).
  void stopProgress();
  /// Resume and apply any transitions enabled while stopped.
  void resumeProgress();
  bool stoppedProgress() const { return stopped_; }

  /// Destination processes of currently active send operations, and source
  /// processes of matched receives whose recvActiveAck is outstanding: the
  /// consistent-state handler pings the nodes hosting them (paper Figure 8)
  /// so no handshake message is in flight at the cut.
  std::vector<trace::ProcId> activeSendPeerProcs() const;

  /// Facts for root-side unexpected-match checking (paper §3.3).
  /// A send active at the current state of a hosted process.
  struct ActiveSend {
    trace::OpId op{};
    trace::ProcId dest = -1;
    mpi::Tag tag = 0;
    mpi::CommId comm = mpi::kCommWorld;
  };
  /// A wildcard receive/probe active (or an unsatisfied wildcard Irecv of an
  /// active completion) of a hosted process, with its matching decision.
  struct ActiveWildcard {
    trace::OpId op{};
    mpi::Tag tag = mpi::kAnyTag;
    mpi::CommId comm = mpi::kCommWorld;
    bool matched = false;
    trace::OpId matchedSend{};
  };
  std::vector<ActiveSend> activeSends() const;
  std::vector<ActiveWildcard> activeWildcards() const;
  /// Per-process variants used by the delta gather: append only the facts of
  /// one hosted process.
  void appendActiveSends(trace::ProcId proc, std::vector<ActiveSend>& out) const;
  void appendActiveWildcards(trace::ProcId proc,
                             std::vector<ActiveWildcard>& out) const;

  // --- Delta gather support (incremental detection rounds) -------------------

  /// Monotone wait-state version of a hosted process: bumped by every event
  /// that can change the process's waitConditions / active-send / active-
  /// wildcard report (newOp, activation, transitions, matching, handshake
  /// and collective acks, request completion). Starts at 1.
  std::uint64_t version(trace::ProcId proc) const {
    return versions_[static_cast<std::size_t>(proc - procLo_)];
  }
  /// True when the process's wait state changed since markReported() last
  /// ran for it (always true before the first report).
  bool dirtySinceReport(trace::ProcId proc) const {
    const auto i = static_cast<std::size_t>(proc - procLo_);
    return reportedVersions_[i] != versions_[i];
  }
  /// Record that the process's current wait state was just reported. A
  /// process whose report was suppressed to "running" by the consistent-
  /// state freeze (active op arrived after the cut) stays dirty: its real
  /// state was not shipped, so the next round must re-report it.
  void markReported(trace::ProcId proc);

  // --- State inspection --------------------------------------------------------

  /// Current timestamp l_i of a hosted process.
  trace::LocalTs current(trace::ProcId proc) const;
  /// Process reached MPI_Finalize.
  bool finishedProc(trace::ProcId proc) const;
  bool allFinished() const;
  /// Wait-for conditions of a hosted process for the requestWaits reply.
  wfg::NodeConditions waitConditions(trace::ProcId proc) const;

  /// Transitions applied so far (sum over hosted processes).
  std::uint64_t transitions() const { return transitions_; }
  /// Largest trace window across hosted processes (paper §4.2/§6: bounded
  /// memory unless the tool falls behind, cf. 128.GAPgeofem).
  std::size_t maxWindowSize() const { return maxWindow_; }
  std::size_t windowSize(trace::ProcId proc) const;
  /// Sends in the consumed history of channel src -> dst on `comm`, oldest
  /// first.
  std::vector<trace::OpId> consumedSends(trace::ProcId src, trace::ProcId dst,
                                         mpi::CommId comm) const;

 private:
  /// Per-operation tracking state (paper: the object o with l, l_s, active,
  /// gotRecvActive, canAdvance attributes).
  struct OpState {
    trace::Record rec;
    bool activated = false;
    // Send side (kSend, kIsend, send half of kSendrecv):
    bool gotRecvActive = false;
    bool sentRecvActiveAck = false;
    trace::OpId matchedRecv{};
    std::vector<trace::OpId> pendingProbeAcks;  // probes waiting for us
    // Receive side (kRecv, kIrecv, kProbe, recv half of kSendrecv):
    bool matched = false;
    trace::OpId matchedSend{};
    bool sentRecvActive = false;
    bool gotAck = false;
    bool wildcardResolved = false;
    mpi::Rank resolvedSource = -1;
    mpi::Tag resolvedTag = mpi::kAnyTag;
    // Collectives:
    std::uint32_t wave = 0;
    bool gotCollAck = false;
  };

  struct ReqInfo {
    trace::Record origin;
    bool reached = false;  // counterpart operation reached (rule 4 premise)
  };

  struct ProcState {
    std::deque<OpState> window;
    trace::LocalTs windowBase = 0;  // timestamp of window.front()
    trace::LocalTs current = 0;     // l_i
    trace::LocalTs arrived = 0;     // next expected newOp timestamp
    bool finished = false;
    std::unordered_map<mpi::RequestId, ReqInfo> requests;
    std::unordered_map<mpi::CommId, std::uint32_t> collSeq;
  };

  /// Point-to-point channel from a sender process to a hosted receiver
  /// process on one communicator. Its sends arrive in send order
  /// (intralayer channels are non-overtaking and each sender's node emits
  /// passSend in program order).
  struct ChannelKey {
    trace::ProcId src;
    trace::ProcId dst;
    mpi::CommId comm;
    auto operator<=>(const ChannelKey&) const = default;
  };

  /// A consumed send remembered together with the receive that consumed it.
  struct ConsumedSend {
    PassSendMsg send;
    trace::OpId consumer;
  };

  /// Matching state of one channel (DESIGN.md §6a).
  struct Channel {
    /// Unmatched sends, in send order.
    std::deque<PassSendMsg> pending;
    /// Recently consumed sends, oldest first, kept so a late probe
    /// resolution can still identify its send. An entry is pinned exactly
    /// while its consumer has no recvActiveAck yet: until then a probe may
    /// still name the send, so eviction skips it and the history may
    /// transiently exceed TrackerConfig::consumedHistory.
    std::deque<ConsumedSend> history;
    /// History entries that are not pinned (their consumer got its ack).
    std::size_t unpinned = 0;
  };

  /// Receive side of one hosted process on one communicator.
  struct RecvQueue {
    /// Unmatched consuming receive-like ops, in call order.
    std::deque<trace::LocalTs> recvs;
    /// Unmatched sends to the process on the communicator, over all its
    /// channels. At 0 no pending receive can match anything.
    std::size_t sends = 0;
  };

  struct NodeWave {
    std::uint32_t activeCount = 0;
    bool readySent = false;
  };

  ProcState& state(trace::ProcId proc);
  const ProcState& state(trace::ProcId proc) const;
  OpState* findOp(trace::ProcId proc, trace::LocalTs ts);
  const OpState* findOp(trace::ProcId proc, trace::LocalTs ts) const;
  bool opArrived(const ProcState& ps, trace::LocalTs ts) const;
  /// l_i >= ts for a hosted process.
  bool reachedLocally(const ProcState& ps, trace::LocalTs ts) const {
    return ts <= ps.current;
  }

  bool blocking(const trace::Record& rec) const;
  bool canAdvanceOp(const ProcState& ps, const OpState& op) const;
  void pump(trace::ProcId proc);
  void activate(trace::ProcId proc, OpState& op);
  void retireFront(ProcState& ps);
  bool protocolComplete(const OpState& op) const;

  // Matching.
  void enqueueRecvLike(trace::ProcId proc, trace::LocalTs ts);
  void tryMatch(trace::ProcId proc, mpi::CommId comm);
  void performMatch(trace::ProcId proc, OpState& recv, const PassSendMsg& send);
  /// Drop the oldest unpinned entry of an over-full history, or count the
  /// attempt as pinned when every entry is.
  void evictConsumed(Channel& channel);
  void maybeSendRecvActive(trace::ProcId proc, OpState& op);
  void satisfyProbes(trace::ProcId dst, const PassSendMsg& send);
  void resolveProbe(trace::ProcId proc, OpState& probe);
  /// Program-order gate for probe matching: a probe may observe a specific
  /// send only if no earlier still-unmatched receive-like op of its process
  /// could claim that send first (posted receives have priority over the
  /// probe in program order). Receives that cannot match the send — wrong
  /// tag, source, or communicator — do not gate it.
  bool probeOrderReached(trace::ProcId proc, const OpState& probe,
                         mpi::Rank sendSrc, mpi::Tag sendTag,
                         mpi::CommId sendComm) const;
  /// Re-scan pending probes against the pending-send store after earlier
  /// receives matched (the order gate may have just opened).
  void recheckProbes(trace::ProcId proc);

  // Collectives.
  /// Hosted members of a communicator's group, resolved once per comm
  /// (groups are immutable after creation).
  struct HostedGroup {
    std::vector<trace::ProcId> members;
    std::uint32_t count = 0;
  };
  const HostedGroup& hostedGroupCache(mpi::CommId comm) const;
  std::uint32_t hostedCountInGroup(mpi::CommId comm) const;
  void onCollectiveActivated(trace::ProcId proc, OpState& op);

  void markRequestReached(trace::ProcId proc, mpi::RequestId request);

  /// Bump the wait-state version of a hosted process (delta gather support).
  void touch(trace::ProcId proc) {
    ++versions_[static_cast<std::size_t>(proc - procLo_)];
  }

  trace::ProcId procLo_;
  trace::ProcId procHi_;
  Comms& comms_;
  const CommView& commView_;
  TrackerConfig config_;
  bool stopped_ = false;

  std::vector<ProcState> procs_;
  std::map<ChannelKey, Channel> channels_;
  std::map<std::pair<trace::ProcId, mpi::CommId>, RecvQueue> pendingRecvs_;
  /// Unmatched probes per proc, in call order.
  std::vector<std::vector<trace::LocalTs>> pendingProbes_;
  std::map<std::pair<mpi::CommId, std::uint32_t>, NodeWave> collWaves_;
  mutable std::map<mpi::CommId, HostedGroup> hostedGroups_;

  std::uint64_t transitions_ = 0;
  std::size_t maxWindow_ = 0;
  // Cached instruments (null when config_.metrics is null).
  support::Counter* evictionCounter_ = nullptr;
  support::Counter* pinnedCounter_ = nullptr;
  support::Gauge* windowGauge_ = nullptr;
  /// Per hosted process: active op had arrived when stopProgress ran.
  std::vector<char> frozenActive_;
  /// Per hosted process: monotone wait-state version (starts at 1) and the
  /// version last shipped to the root (0 = never / suppressed report, which
  /// can never equal a real version, so the process reads as dirty).
  std::vector<std::uint64_t> versions_;
  std::vector<std::uint64_t> reportedVersions_;
};

}  // namespace wst::waitstate
