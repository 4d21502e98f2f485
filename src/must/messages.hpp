// Tool-internal messages of the integrated MUST-style tool: the wait-state
// algorithm's five messages, the application event stream, and the control
// messages of the timeout-triggered detection protocol (paper §5).
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "support/box.hpp"
#include "tbon/topology.hpp"
#include "trace/event.hpp"
#include "waitstate/messages.hpp"
#include "wfg/graph.hpp"

namespace wst::must {

/// Root -> first layer: stop the transition system and synchronize
/// (paper Figure 8 / §5).
struct RequestConsistentStateMsg {
  std::uint32_t epoch = 0;  // detection round
};

/// First layer -> root (aggregated): `count` first-layer nodes reached a
/// consistent state.
struct AckConsistentStateMsg {
  std::uint32_t epoch = 0;
  std::uint32_t count = 1;
};

/// Intralayer double ping-pong (paper Figure 8). `remaining` counts the
/// ping-pong rounds still to run after this one. `epoch` tags the detection
/// round the ping belongs to: a pong of a round the tool abandoned (a crash
/// tore the round and recovery restarted it) is dropped instead of being
/// miscounted against the new round's outstanding-peer tally.
struct PingMsg {
  tbon::NodeId origin = -1;
  std::int32_t remaining = 0;
  std::uint32_t epoch = 0;
};
struct PongMsg {
  tbon::NodeId responder = -1;
  std::int32_t remaining = 0;
  std::uint32_t epoch = 0;
};

/// Root -> first layer: describe the wait-for conditions of all processes.
/// `baseEpoch` is the last epoch whose wait info the root fully integrated
/// (0 = none): trackers that replied in exactly that epoch may answer with a
/// delta — conditions only for processes whose wait state changed since.
struct RequestWaitsMsg {
  std::uint32_t epoch = 0;
  std::uint32_t baseEpoch = 0;
};

/// Facts for root-side unexpected-match checking (paper §3.3): sends active
/// at the consistent state...
struct ActiveSendInfo {
  trace::OpId op{};
  trace::ProcId dest = -1;
  mpi::Tag tag = 0;
  mpi::CommId comm = mpi::kCommWorld;
};

/// ...and wildcard receives active at the consistent state, with the
/// matching decision (if any) point-to-point matching made for them.
struct ActiveWildcardInfo {
  trace::OpId op{};
  mpi::Tag tag = mpi::kAnyTag;
  mpi::CommId comm = mpi::kCommWorld;
  bool matched = false;
  trace::OpId matchedSend{};
};

/// First layer -> root: wait-for conditions of the node's hosted processes
/// plus the §3.3 facts. In a delta reply only *changed* processes carry a
/// NodeConditions entry; `unchangedCount` processes are unchanged since the
/// request's baseEpoch, so the root knows the reply is complete. Inner TBON
/// nodes merge the replies of their children on the way up, so one message
/// per tree link carries a whole subtree's delta.
struct WaitInfoMsg {
  std::uint32_t epoch = 0;
  std::uint32_t unchangedCount = 0;
  std::vector<wfg::NodeConditions> conditions;
  std::vector<ActiveSendInfo> activeSends;
  std::vector<ActiveWildcardInfo> activeWildcards;
};

/// First layer -> root (condensed and merged at inner nodes): the subtree's
/// boundary condensation plus the §3.3 facts. In pure hierarchical mode this
/// replaces WaitInfoMsg entirely; in verify mode it rides next to the raw
/// reply (and then carries no active sends/wildcards — the raw path already
/// delivers them).
struct CondensedWaitInfoMsg {
  waitstate::CondensedWaitMsg wait;
  std::vector<ActiveSendInfo> activeSends;
  std::vector<ActiveWildcardInfo> activeWildcards;
};

/// Root -> first layer (hierarchical deadlock only): fetch the full wait-for
/// conditions of the deadlocked processes so the root can reconstruct the
/// report detail (DOT, clause reasons, process-level cycle). Safe after the
/// trackers resumed: a deadlocked process is permanently blocked, so its
/// unsatisfiable conditions cannot change after the consistent cut.
struct DeadlockDetailRequestMsg {
  std::uint32_t epoch = 0;
  std::vector<trace::ProcId> procs;  // sorted, global
};

/// First layer -> root (merged at inner nodes): the requested conditions.
/// Every first-layer node answers (possibly empty) so inner nodes can count
/// one reply per child.
struct DeadlockDetailMsg {
  std::uint32_t epoch = 0;
  std::vector<wfg::NodeConditions> conditions;
};

/// Process wrapper -> its first-layer node (hybrid mode, DESIGN.md §15):
/// the process left its statically certified prefix. The tracker
/// fast-forwards the process's state over the `opCount` sampled records
/// (which include `worldCollectives` MPI_COMM_WORLD collective waves) and
/// resumes full tracking with the operation that follows this message.
struct PhaseResyncMsg {
  trace::ProcId proc = -1;
  trace::LocalTs opCount = 0;
  std::uint32_t worldCollectives = 0;
};

/// One TBON node's health sample (telemetry plane, DESIGN.md §16). Every
/// field is state owned by the sampling node's LP at the moment its beat
/// timer fires, so the row — and everything the root derives from it — is
/// deterministic across worker counts.
struct HealthBeatRow {
  tbon::NodeId node = -1;
  std::uint64_t beatSeq = 0;            // sender-local beat counter
  std::uint64_t sampledAtNs = 0;        // virtual time of the sample
  std::uint32_t lastEpoch = 0;          // last detection epoch seen
  std::uint32_t queueDepth = 0;         // overlay receive queue, now
  std::uint32_t maxQueueDepth = 0;      // node-local high-water
  std::uint64_t retransmitBacklog = 0;  // unacked reliable-stream envelopes
  std::uint64_t condensationNodes = 0;  // last condensation size (hier mode)
  std::uint64_t resyncedOps = 0;        // ops fast-forwarded by resyncs
  std::uint64_t deliveredMsgs = 0;      // tool messages handled by the node
};

/// Node -> root (relayed up the tree): periodic liveness + load beat.
/// Fire-and-forget — no node ever waits for a child's beat, so a silent
/// node stalls nothing; the root notices it by the *absence* of rows.
struct HealthBeatMsg {
  std::vector<HealthBeatRow> rows;
};

// --- Crash-recovery control plane (DESIGN.md §17) ----------------------------

/// Root -> an orphaned child of a crashed node: adopt `newParent` as the up
/// route. The orphan re-sends its unacknowledged collective contributions
/// over the new path (idempotent: aggregation is origin-keyed) and then
/// re-registers up the tree so the root knows the subtree is re-anchored.
struct ReparentMsg {
  tbon::NodeId deadNode = -1;
  tbon::NodeId newParent = -1;
};

/// Root -> the adopting node: `orphans` now route through you; drop the
/// crashed child from your live-children set and ignore any contribution
/// still in flight from it (the orphans replay the ground truth).
struct AdoptMsg {
  tbon::NodeId deadNode = -1;
  std::vector<tbon::NodeId> orphans;
};

/// Adopter -> root (relayed up): the adoption is applied on the adopter's
/// node state.
struct AdoptAckMsg {
  tbon::NodeId adopter = -1;
  tbon::NodeId deadNode = -1;
};

/// Orphan -> root (relayed up the *new* path): this subtree re-anchored.
/// Arrival doubles as proof the new route works end to end.
struct ReRegisterMsg {
  tbon::NodeId orphan = -1;
  tbon::NodeId deadNode = -1;
};

/// Every queued or in-flight tool message is one of these, so the variant is
/// sized by its largest inline alternative: NewOpEvent, the data plane's
/// hottest message. The two per-round replies are larger and ride boxed
/// (DESIGN.md §6b).
using ToolMsg =
    std::variant<trace::NewOpEvent, trace::MatchInfoEvent,
                 waitstate::PassSendMsg, waitstate::RecvActiveMsg,
                 waitstate::RecvActiveAckMsg, waitstate::CollectiveReadyMsg,
                 waitstate::CollectiveAckMsg, RequestConsistentStateMsg,
                 AckConsistentStateMsg, PingMsg, PongMsg, RequestWaitsMsg,
                 support::Box<WaitInfoMsg>,
                 support::Box<CondensedWaitInfoMsg>, DeadlockDetailRequestMsg,
                 DeadlockDetailMsg, PhaseResyncMsg, HealthBeatMsg, ReparentMsg,
                 AdoptMsg, AdoptAckMsg, ReRegisterMsg>;

/// Modeled wire size for bandwidth accounting.
inline std::size_t modeledSize(const ToolMsg& msg) {
  return std::visit(
      [](const auto& m) -> std::size_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, trace::NewOpEvent>) {
          return 32 + 4 * m.rec.completes.size();
        } else if constexpr (std::is_same_v<T, trace::MatchInfoEvent>) {
          return 16;
        } else if constexpr (std::is_same_v<T, waitstate::PassSendMsg>) {
          return waitstate::kPassSendBytes;
        } else if constexpr (std::is_same_v<T, waitstate::RecvActiveMsg>) {
          return waitstate::kRecvActiveBytes;
        } else if constexpr (std::is_same_v<T, waitstate::RecvActiveAckMsg>) {
          return waitstate::kRecvActiveAckBytes;
        } else if constexpr (std::is_same_v<T,
                                            waitstate::CollectiveReadyMsg>) {
          return waitstate::kCollectiveReadyBytes;
        } else if constexpr (std::is_same_v<T, waitstate::CollectiveAckMsg>) {
          return waitstate::kCollectiveAckBytes;
        } else if constexpr (std::is_same_v<T, support::Box<WaitInfoMsg>>) {
          std::size_t bytes = 20;  // header incl. the unchanged-count word
          for (const auto& node : m->conditions) {
            bytes += 16;
            for (const auto& clause : node.clauses) {
              bytes += 8 + 4 * clause.targets.size();
            }
          }
          bytes += 16 * m->activeSends.size();
          bytes += 20 * m->activeWildcards.size();
          return bytes;
        } else if constexpr (
            std::is_same_v<T, support::Box<CondensedWaitInfoMsg>>) {
          return 8 + waitstate::condensationBytes(m->wait.cond) +
                 16 * m->activeSends.size() + 20 * m->activeWildcards.size();
        } else if constexpr (std::is_same_v<T, DeadlockDetailRequestMsg>) {
          return 8 + 4 * m.procs.size();
        } else if constexpr (std::is_same_v<T, AdoptMsg>) {
          return 8 + 4 * m.orphans.size();
        } else if constexpr (std::is_same_v<T, PhaseResyncMsg>) {
          return 16;
        } else if constexpr (std::is_same_v<T, HealthBeatMsg>) {
          return 8 + 48 * m.rows.size();
        } else if constexpr (std::is_same_v<T, DeadlockDetailMsg>) {
          std::size_t bytes = 8;
          for (const auto& node : m.conditions) {
            bytes += 16;
            for (const auto& clause : node.clauses) {
              bytes += 8 + 4 * clause.targets.size();
            }
          }
          return bytes;
        } else {
          return 12;  // control messages
        }
      },
      msg);
}

}  // namespace wst::must
