// Operation records: the tool-side view of one MPI call.
//
// This is the paper's `Op` set (§3.1): each operation is identified by a pair
// (i, j) of process id and local logical timestamp, and carries exactly the
// information the wait state analysis needs — what kind of call it is, which
// peer/communicator it involves, and (for completion calls) which earlier
// non-blocking operations it completes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpi/types.hpp"

namespace wst::trace {

/// Process id within the traced application (paper: i ∈ P).
using ProcId = std::int32_t;

/// Local logical timestamp of an operation (paper: j ∈ {0..m_i}).
using LocalTs = std::uint32_t;

/// Identifier (i, j) of one operation in the trace.
struct OpId {
  ProcId proc = -1;
  LocalTs ts = 0;

  friend bool operator==(const OpId&, const OpId&) = default;
  friend auto operator<=>(const OpId&, const OpId&) = default;
};

/// Tool-side operation kinds. This intentionally distinguishes exactly the
/// classes the paper's blocking predicate `b` and transition rules (1)-(4)
/// distinguish; data arguments (buffers, datatypes) are irrelevant to wait
/// state analysis and are not represented.
enum class Kind : std::uint8_t {
  // Blocking point-to-point (rule 2).
  kSend,      // blocking send; SendMode says which flavour
  kRecv,      // blocking receive (peer may be kAnySource)
  kProbe,     // blocking probe — waits like a receive, consumes nothing
  kSendrecv,  // treated as a send/recv series; reported as one call
  // Non-blocking point-to-point (rule 1 for the call itself).
  kIsend,   // non-blocking send; SendMode distinguishes I[sbr]send
  kIrecv,   // non-blocking receive
  kIprobe,  // non-blocking probe
  // Persistent-request setup (MPI_Send_init / MPI_Recv_init): local calls;
  // each MPI_Start is traced as a fresh kIsend/kIrecv (paper §3.1: persistent
  // operations are handled like non-blocking point-to-point operations).
  kSendInit,
  kRecvInit,
  // Completion operations (rule 4) — blocking.
  kWait,      // single request; behaves like Waitall of one
  kWaitall,   // rule 4(II)
  kWaitany,   // rule 4(I)
  kWaitsome,  // rule 4(I)
  // Completion tests — non-blocking (rule 1).
  kTest,
  kTestall,
  kTestany,
  kTestsome,
  // Collectives (rule 3) — blocking under the conservative model.
  kCollective,
  // Terminal operation: no rule applies (well-defined terminal state).
  kFinalize,
};

const char* toString(Kind kind);

/// One traced MPI call. Every queued tool message and every tracker-window
/// op holds one, so the 4-byte fields come first, then the one-byte enums,
/// then the vector: no padding hole, 72 bytes (DESIGN.md §6b). Nothing
/// initializes a Record by member position.
struct Record {
  OpId id{};

  // Point-to-point fields.
  mpi::Rank peer = mpi::kAnySource;  // dest for sends, src for recv/probe
  mpi::Tag tag = 0;
  mpi::CommId comm = mpi::kCommWorld;
  mpi::Bytes bytes = 0;

  // For kSendrecv: the receive half (peer/tag above describe the send half).
  mpi::Rank recvPeer = mpi::kAnySource;
  mpi::Tag recvTag = 0;

  // Non-blocking ops: the request this call created.
  mpi::RequestId request = mpi::kNullRequest;

  // Collectives: the root (collective kind below).
  mpi::Rank root = 0;

  Kind kind = Kind::kFinalize;
  mpi::SendMode sendMode = mpi::SendMode::kStandard;
  mpi::CollectiveKind collective = mpi::CollectiveKind::kBarrier;

  // Completion calls: requests being completed, in call order.
  std::vector<mpi::RequestId> completes;

  bool isSendLike() const {
    return kind == Kind::kSend || kind == Kind::kIsend;
  }
  bool isRecvLike() const {
    return kind == Kind::kRecv || kind == Kind::kIrecv ||
           kind == Kind::kProbe || kind == Kind::kIprobe;
  }
  bool isCompletion() const {
    return kind == Kind::kWait || kind == Kind::kWaitall ||
           kind == Kind::kWaitany || kind == Kind::kWaitsome;
  }
  bool isTest() const {
    return kind == Kind::kTest || kind == Kind::kTestall ||
           kind == Kind::kTestany || kind == Kind::kTestsome;
  }
  /// Completion requiring *all* associated operations matched (rule 4(II)).
  bool completionNeedsAll() const {
    return kind == Kind::kWait || kind == Kind::kWaitall;
  }
  bool isWildcardRecv() const {
    return (kind == Kind::kRecv || kind == Kind::kIrecv ||
            kind == Kind::kProbe) &&
           peer == mpi::kAnySource;
  }
};

/// Policy for the blocking predicate `b` (paper §3.1 / §3.3).
///
/// kConservative is the paper's choice: standard-mode sends block and all
/// collectives synchronize, so errors that a buffering MPI hides are still
/// found. kImplementationFaithful adapts `b` to the modeled implementation
/// (the paper's "future extension"): standard sends below the eager
/// threshold are non-blocking.
enum class BlockingModel : std::uint8_t {
  kConservative,
  kImplementationFaithful,
};

/// The paper's predicate b : Op -> {⊥, ⊤}. `eagerThreshold` is consulted
/// only by the implementation-faithful model.
bool isBlocking(const Record& op,
                BlockingModel model = BlockingModel::kConservative,
                mpi::Bytes eagerThreshold = 4096);

/// Short human-readable rendering, e.g. "Send(to:1, tag:0)" — used in
/// deadlock reports and DOT labels.
std::string describe(const Record& op);

}  // namespace wst::trace
