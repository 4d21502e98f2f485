// The simulated MPI runtime.
//
// Owns the matching machinery (point-to-point with wildcard receives and
// probes, collectives with per-communicator waves), request bookkeeping, and
// communicator management for a fixed set of ranks. Rank programs are C++20
// coroutines (see mpi/proc.hpp); this class is the "MPI library" they call
// into.
//
// Semantics modeled (these are exactly the semantics the paper's wait state
// analysis reasons about):
//
//  * Non-overtaking point-to-point matching: messages between the same pair
//    of ranks on the same communicator match in send order per tag.
//  * Wildcard receives (MPI_ANY_SOURCE / MPI_ANY_TAG): matched against the
//    earliest-arrived compatible envelope — the simulated implementation's
//    deterministic matching decision, which the tool observes ("we use
//    return values of MPI calls to observe the interleaving", paper §2).
//  * Send modes: MPI_Ssend is rendezvous; MPI_Bsend/MPI_Rsend complete
//    locally; standard MPI_Send buffers below the eager threshold only if
//    RuntimeConfig::bufferStandardSends is set (the "freedom of MPI" that
//    hides send-send deadlocks like 126.lammps, paper §6).
//  * Collectives synchronize all members by default; rooted collectives can
//    be configured non-synchronizing to reproduce the unexpected-match
//    scenario of paper Figure 4.
//
// Deadlock behaviour: a deadlocked rank's coroutine simply never resumes;
// the discrete-event queue drains and the engine's quiescence hooks fire —
// which is where the tool's timeout-triggered detection (paper §5) runs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/config.hpp"
#include "mpi/interpose.hpp"
#include "mpi/types.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "support/lazy_deque.hpp"
#include "trace/op.hpp"

namespace wst::support {
class Tracer;
class TraceTrack;
}  // namespace wst::support

namespace wst::mpi {

class Proc;

/// Completion status of a receive/probe (subset of MPI_Status).
struct Status {
  Rank source = -1;  // world rank of the matched sender
  Tag tag = -1;
  Bytes bytes = 0;
};

class Runtime {
 public:
  Runtime(sim::Scheduler& engine, RuntimeConfig config,
          std::int32_t procCount);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  sim::Scheduler& engine() { return engine_; }
  const RuntimeConfig& config() const { return config_; }
  std::int32_t procCount() const { return static_cast<std::int32_t>(procs_.size()); }
  Proc& proc(Rank rank);

  /// Attach/detach the tool. Must be set before start().
  void setInterposer(Interposer* interposer) { interposer_ = interposer; }
  Interposer* interposer() const { return interposer_; }

  /// Attach a flight recorder: creates one app-proc track per rank ("rank N")
  /// and enables per-call instants, blocked spans, and async op-lifetime
  /// events. All app ranks execute on the main LP, so every track has a
  /// single writer. Call before start(); null tracer (or a disabled one)
  /// keeps all recording sites on their null-check fast path.
  void setTracer(support::Tracer* tracer);
  support::TraceTrack* procTrack(Rank rank) const {
    return procTracks_.empty() ? nullptr
                               : procTracks_[static_cast<std::size_t>(rank)];
  }

  const Communicator& comm(CommId id) const;
  /// Number of communicators created so far (including MPI_COMM_WORLD).
  std::int32_t commCount() const {
    std::shared_lock lock(commsMu_);
    return static_cast<std::int32_t>(comms_.size());
  }

  /// A rank program: invoked once per rank, returns the rank's root task.
  using Program = std::function<sim::Task(Proc&)>;

  /// Install `program` on every rank and schedule all ranks at the current
  /// virtual time. Call engine().run() afterwards (or use runToCompletion).
  void start(const Program& program);

  /// Install a possibly rank-specific program.
  void start(const std::function<Program(Rank)>& programFor);

  /// Convenience: start + engine().run().
  void runToCompletion(const Program& program);

  // --- Run outcome ----------------------------------------------------------

  bool allFinalized() const;
  std::vector<Rank> unfinishedRanks() const;
  /// Virtual time at which the last rank finalized (0 if none did).
  sim::Time lastFinalizeTime() const { return lastFinalizeTime_; }
  /// Total MPI calls issued across all ranks.
  std::uint64_t totalCalls() const { return totalCalls_; }

  /// MPI usage errors the runtime itself observed (e.g. collective kind
  /// mismatch within a wave). The tool performs its own checking; these are
  /// runtime-level sanity observations.
  const std::vector<std::string>& usageErrors() const { return usageErrors_; }

  // --- Internal machinery (used by Proc; public for white-box tests) -------

  /// A posted point-to-point or collective operation.
  struct PointOp {
    Rank owner = -1;
    trace::OpId opId{};
    bool isSend = false;
    bool probe = false;
    SendMode mode = SendMode::kStandard;
    Rank peer = kAnySource;  // world rank; kAnySource for wildcard receives
    Tag tag = 0;
    CommId comm = kCommWorld;
    Bytes bytes = 0;
    bool nonblocking = false;
    RequestId request = kNullRequest;
    bool rendezvous = false;  // send completes only when matched
    bool complete = false;
    Status status{};
    CommId resultComm = -1;  // Comm_dup / Comm_split result
    sim::Gate gate;          // opened at completion (blocking ops wait on it)
  };
  using PointOpPtr = std::shared_ptr<PointOp>;

  PointOpPtr postSend(Rank src, trace::OpId id, Rank dstWorld, Tag tag,
                      CommId comm, Bytes bytes, SendMode mode,
                      bool nonblocking, RequestId request);
  PointOpPtr postRecv(Rank dst, trace::OpId id, Rank srcWorld, Tag tag,
                      CommId comm, bool nonblocking, RequestId request);
  PointOpPtr postProbe(Rank dst, trace::OpId id, Rank srcWorld, Tag tag,
                       CommId comm);
  /// MPI_Iprobe: true if a matching envelope is currently queued.
  bool iprobeNow(Rank dst, Rank srcWorld, Tag tag, CommId comm,
                 Status* status);

  /// Join the next collective wave of `comm` for `rank`. color/key are used
  /// by Comm_split only.
  PointOpPtr joinCollective(Rank rank, trace::OpId id, CommId comm,
                            CollectiveKind kind, Rank rootWorld, Bytes bytes,
                            int color, int key);

  /// Request lookup. Requests are per-proc and never reused.
  PointOpPtr findRequest(Rank owner, RequestId request) const;
  /// Remove a completed request from the table (completion call succeeded).
  void retireRequest(Rank owner, RequestId request);

  void markFinalized(Rank rank);

 private:
  friend class Proc;

  /// An envelope: a send that has arrived at its destination and is visible
  /// for matching there.
  struct Envelope {
    PointOpPtr sendOp;
    sim::Time arrival = 0;
  };

  /// One per rank and usually empty, so its queues allocate on first use;
  /// `unexpected` can still grow long under send pileups (137.lu).
  struct Mailbox {
    support::LazyDeque<Envelope> unexpected;      // arrived, not yet matched
    support::LazyDeque<PointOpPtr> postedRecvs;   // posted receives, post order
    support::LazyDeque<PointOpPtr> postedProbes;  // pending blocking probes
  };

  /// One collective wave: the nth collective call on a communicator, joined
  /// by each member rank exactly once.
  struct CollWave {
    CollectiveKind kind = CollectiveKind::kBarrier;
    Rank root = 0;  // world rank
    bool kindRecorded = false;
    bool rootArrived = false;
    sim::Time rootArrivalTime = 0;
    struct Member {
      Rank rank;
      PointOpPtr op;
      int color;
      int key;
      sim::Time arrival;
      bool completed = false;
    };
    std::vector<Member> members;
  };

  struct CommState {
    std::deque<CollWave> waves;
    /// Per world rank: index of the next wave this rank joins. Only members
    /// of the communicator advance their entry.
    std::vector<std::uint32_t> nextWave;
    /// Number of fully completed waves popped from the front of `waves`
    /// (wave index i lives at waves[i - popped]).
    std::uint32_t popped = 0;
  };

  void deliverEnvelope(Rank dst, Envelope env);
  bool envelopeMatchesRecv(const PointOp& recv, const PointOp& send) const;
  void executeMatch(Rank dst, const PointOpPtr& recvOp, Envelope env,
                    sim::Duration extraDelay = 0);
  void completeProbe(const PointOpPtr& probeOp, const PointOpPtr& sendOp);
  void completePointOp(const PointOpPtr& op, sim::Duration delay);
  void maybeFinishWave(CommId comm, std::uint32_t waveIndex);
  void finishCollectiveMember(CollWave::Member& member, CommId comm,
                              CollectiveKind kind, sim::Duration delay);
  CommId createComm(std::vector<Rank> group);
  sim::Duration collectiveCost(std::int32_t groupSize) const;
  void emitMatchInfo(const PointOpPtr& recvOp);

  sim::Scheduler& engine_;
  RuntimeConfig config_;
  Interposer* interposer_ = nullptr;

  std::vector<std::unique_ptr<Proc>> procs_;
  std::vector<Mailbox> mailboxes_;
  /// Ranks create communicators on the main LP while tool-node LPs resolve
  /// groups through comm(); the shared mutex covers the vector only —
  /// Communicator objects are immutable once created.
  mutable std::shared_mutex commsMu_;
  std::vector<std::unique_ptr<Communicator>> comms_;
  /// Deque: Comm_dup/Comm_split create communicators while references into
  /// an existing CommState are live; deque growth keeps them stable.
  std::deque<CommState> commStates_;
  /// Request table per proc.
  std::vector<std::unordered_map<RequestId, PointOpPtr>> requests_;

  /// Rank programs are coroutine lambdas: the coroutine frame references the
  /// captures stored inside the callable object, so the callable must stay
  /// alive (and must not move) for the whole run. A deque gives stable
  /// addresses.
  std::deque<Program> programs_;

  /// Outstanding (unmatched) eager sends per rank, for the backlog model.
  std::vector<std::uint32_t> eagerOutstanding_;

  /// Per-rank flight-recorder tracks (empty when no tracer is attached).
  std::vector<support::TraceTrack*> procTracks_;

  std::vector<bool> finalized_;
  std::int32_t finalizedCount_ = 0;
  sim::Time lastFinalizeTime_ = 0;
  std::uint64_t totalCalls_ = 0;
  std::vector<std::string> usageErrors_;
};

}  // namespace wst::mpi
