#include "waitstate/distributed_tracker.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/strings.hpp"
#include "support/tracing.hpp"

namespace wst::waitstate {

using trace::Kind;
using trace::LocalTs;
using trace::OpId;
using trace::ProcId;
using trace::Record;

namespace {
bool isSendLikeKind(Kind k) {
  return k == Kind::kSend || k == Kind::kIsend || k == Kind::kSendrecv;
}
bool isConsumingRecvKind(Kind k) {
  return k == Kind::kRecv || k == Kind::kIrecv || k == Kind::kSendrecv;
}
}  // namespace

DistributedTracker::DistributedTracker(ProcId procLo, ProcId procHi,
                                       Comms& comms, const CommView& commView,
                                       TrackerConfig config)
    : procLo_(procLo),
      procHi_(procHi),
      comms_(comms),
      commView_(commView),
      config_(config),
      procs_(static_cast<std::size_t>(procHi - procLo)),
      pendingProbes_(static_cast<std::size_t>(procHi - procLo)),
      versions_(static_cast<std::size_t>(procHi - procLo), 1),
      reportedVersions_(static_cast<std::size_t>(procHi - procLo), 0) {
  WST_ASSERT(procLo >= 0 && procHi > procLo, "invalid hosted process range");
  if (config_.metrics != nullptr) {
    evictionCounter_ = &config_.metrics->counter("tracker/consumed_evictions");
    pinnedCounter_ = &config_.metrics->counter("tracker/consumed_pinned");
    windowGauge_ = &config_.metrics->gauge("tracker/max_window");
  }
}

DistributedTracker::ProcState& DistributedTracker::state(ProcId proc) {
  WST_ASSERT(hosts(proc), "process not hosted on this tracker");
  return procs_[static_cast<std::size_t>(proc - procLo_)];
}
const DistributedTracker::ProcState& DistributedTracker::state(
    ProcId proc) const {
  WST_ASSERT(hosts(proc), "process not hosted on this tracker");
  return procs_[static_cast<std::size_t>(proc - procLo_)];
}

DistributedTracker::OpState* DistributedTracker::findOp(ProcId proc,
                                                        LocalTs ts) {
  ProcState& ps = state(proc);
  if (ts < ps.windowBase) return nullptr;  // retired: protocol complete
  const std::size_t idx = ts - ps.windowBase;
  if (idx >= ps.window.size()) return nullptr;  // not arrived
  return &ps.window[idx];
}
const DistributedTracker::OpState* DistributedTracker::findOp(
    ProcId proc, LocalTs ts) const {
  return const_cast<DistributedTracker*>(this)->findOp(proc, ts);
}

bool DistributedTracker::opArrived(const ProcState& ps, LocalTs ts) const {
  return ts < ps.arrived;
}

bool DistributedTracker::blocking(const Record& rec) const {
  return trace::isBlocking(rec, config_.blockingModel, config_.eagerThreshold);
}

trace::LocalTs DistributedTracker::current(ProcId proc) const {
  return state(proc).current;
}

bool DistributedTracker::finishedProc(ProcId proc) const {
  return state(proc).finished;
}

bool DistributedTracker::allFinished() const {
  return std::all_of(procs_.begin(), procs_.end(),
                     [](const ProcState& ps) { return ps.finished; });
}

std::size_t DistributedTracker::windowSize(ProcId proc) const {
  return state(proc).window.size();
}

std::vector<OpId> DistributedTracker::consumedSends(ProcId src, ProcId dst,
                                                    mpi::CommId comm) const {
  std::vector<OpId> sends;
  const auto it = channels_.find(ChannelKey{src, dst, comm});
  if (it == channels_.end()) return sends;
  for (const ConsumedSend& entry : it->second.history) {
    sends.push_back(entry.send.sendOp);
  }
  return sends;
}

void DistributedTracker::fastForward(ProcId proc, LocalTs opCount,
                                     std::uint32_t worldCollectives) {
  ProcState& ps = state(proc);
  // Suppression covers a *prefix* of the process's records, so the resync
  // must land on a pristine process: nothing arrived, nothing tracked.
  WST_ASSERT(ps.window.empty() && ps.arrived == 0 && ps.current == 0 &&
                 ps.windowBase == 0 && !ps.finished,
             "hybrid resync on a non-pristine process");
  ps.windowBase = opCount;
  ps.current = opCount;
  ps.arrived = opCount;
  // Every certified world collective wave completed inside the prefix; the
  // per-comm wave counter must skip past them so the first tracked
  // collective lands in the right wave.
  ps.collSeq[mpi::kCommWorld] += worldCollectives;
  touch(proc);
}

// --- newOp -------------------------------------------------------------------

void DistributedTracker::onNewOp(const Record& rec) {
  // A backlogged tracker holds one OpState per windowed op (DESIGN.md §6b).
  static_assert(sizeof(OpState) <= 112, "OpState outgrew its packed layout");
  const ProcId p = rec.id.proc;
  ProcState& ps = state(p);
  WST_ASSERT(rec.id.ts == ps.arrived, "newOp out of order");
  ++ps.arrived;
  touch(p);
  ps.window.push_back(OpState{});
  OpState& op = ps.window.back();
  op.rec = rec;
  maxWindow_ = std::max(maxWindow_, ps.window.size());
  if (windowGauge_ != nullptr) {
    // observe(): the gauge is shared by every node's tracker, which run on
    // different LPs under the parallel engine — a monotone max commutes.
    windowGauge_->observe(static_cast<std::int64_t>(maxWindow_));
  }

  switch (rec.kind) {
    case Kind::kSend:
    case Kind::kIsend: {
      PassSendMsg msg;
      msg.sendOp = rec.id;
      msg.destProc = rec.peer;
      msg.tag = rec.tag;
      msg.comm = rec.comm;
      msg.bytes = rec.bytes;
      msg.mode = rec.sendMode;
      comms_.passSend(msg);
      if (rec.kind == Kind::kIsend) {
        ps.requests.emplace(rec.request, ReqInfo{rec, false});
      }
      break;
    }
    case Kind::kSendrecv: {
      PassSendMsg msg;
      msg.sendOp = rec.id;
      msg.destProc = rec.peer;
      msg.tag = rec.tag;
      msg.comm = rec.comm;
      msg.bytes = rec.bytes;
      msg.mode = rec.sendMode;
      comms_.passSend(msg);
      enqueueRecvLike(p, rec.id.ts);
      tryMatch(p, rec.comm);
      break;
    }
    case Kind::kRecv:
    case Kind::kIrecv: {
      if (rec.kind == Kind::kIrecv) {
        ps.requests.emplace(rec.request, ReqInfo{rec, false});
      }
      enqueueRecvLike(p, rec.id.ts);
      tryMatch(p, rec.comm);
      break;
    }
    case Kind::kProbe: {
      pendingProbes_[static_cast<std::size_t>(p - procLo_)].push_back(
          rec.id.ts);
      if (rec.peer != mpi::kAnySource) {
        // A deterministic probe may already observe a pending send — but
        // only one that no earlier still-unmatched receive of this process
        // could claim first (program order: those receives have priority).
        const auto it = channels_.find(ChannelKey{rec.peer, p, rec.comm});
        if (it != channels_.end()) {
          for (const PassSendMsg& send : it->second.pending) {
            if (rec.tag != mpi::kAnyTag && rec.tag != send.tag) continue;
            if (!probeOrderReached(p, op, send.sendOp.proc, send.tag,
                                   send.comm)) {
              break;  // recheckProbes() revisits once that receive matches
            }
            op.matched = true;
            op.matchedSend = send.sendOp;
            std::erase(pendingProbes_[static_cast<std::size_t>(p - procLo_)],
                       rec.id.ts);
            break;
          }
        }
      }
      break;
    }
    case Kind::kCollective: {
      op.wave = ps.collSeq[rec.comm]++;
      break;
    }
    default:
      break;  // Iprobe, Test*, Wait*, Finalize need no arrival bookkeeping
  }

  if (rec.id.ts == ps.current && !op.activated) activate(p, op);
  pump(p);
}

// --- activation / advancing -----------------------------------------------------

void DistributedTracker::activate(ProcId proc, OpState& op) {
  WST_ASSERT(!op.activated, "operation activated twice");
  op.activated = true;
  touch(proc);
  const Kind kind = op.rec.kind;

  if (kind == Kind::kCollective) {
    onCollectiveActivated(proc, op);
  }
  if (isConsumingRecvKind(kind)) {
    maybeSendRecvActive(proc, op);
  }
  if (kind == Kind::kProbe && op.matched && !op.sentRecvActive) {
    comms_.recvActive(op.matchedSend.proc,
                      RecvActiveMsg{op.matchedSend, op.rec.id, true});
    op.sentRecvActive = true;
  }
  if (isSendLikeKind(kind)) {
    if (op.gotRecvActive && !op.sentRecvActiveAck) {
      comms_.recvActiveAck(op.matchedRecv.proc,
                           RecvActiveAckMsg{op.matchedRecv, false});
      op.sentRecvActiveAck = true;
    }
    if (op.pendingProbeAcks != nullptr) {
      for (const OpId& probe : *op.pendingProbeAcks) {
        comms_.recvActiveAck(probe.proc, RecvActiveAckMsg{probe, true});
      }
      op.pendingProbeAcks.reset();
    }
  }
}

bool DistributedTracker::canAdvanceOp(const ProcState& ps,
                                      const OpState& op) const {
  const Record& r = op.rec;
  if (r.kind == Kind::kFinalize) return false;
  if (!blocking(r)) return true;
  switch (r.kind) {
    case Kind::kSend:
      return op.gotRecvActive;
    case Kind::kRecv:
    case Kind::kProbe:
      return op.gotAck;
    case Kind::kSendrecv:
      return op.gotRecvActive && op.gotAck;
    case Kind::kCollective:
      return op.gotCollAck;
    case Kind::kWait:
    case Kind::kWaitall: {
      for (mpi::RequestId req : r.completes) {
        const auto it = ps.requests.find(req);
        if (it == ps.requests.end() || !it->second.reached) return false;
      }
      return true;
    }
    case Kind::kWaitany:
    case Kind::kWaitsome: {
      if (r.completes.empty()) return true;
      for (mpi::RequestId req : r.completes) {
        const auto it = ps.requests.find(req);
        if (it != ps.requests.end() && it->second.reached) return true;
      }
      return false;
    }
    default:
      return false;
  }
}

void DistributedTracker::pump(ProcId proc) {
  if (stopped_) return;
  ProcState& ps = state(proc);
  while (!ps.finished && opArrived(ps, ps.current)) {
    OpState* op = findOp(proc, ps.current);
    WST_ASSERT(op != nullptr, "active operation missing from window");
    if (op->rec.kind == Kind::kFinalize) {
      ps.finished = true;
      touch(proc);
      break;
    }
    if (!canAdvanceOp(ps, *op)) break;
    ++ps.current;
    ++transitions_;
    touch(proc);
    retireFront(ps);
    if (opArrived(ps, ps.current)) {
      OpState* next = findOp(proc, ps.current);
      WST_ASSERT(next != nullptr, "next operation missing from window");
      if (!next->activated) activate(proc, *next);
    }
  }
}

void DistributedTracker::stopProgress() {
  stopped_ = true;
  frozenActive_.assign(procs_.size(), 0);
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    frozenActive_[i] = opArrived(procs_[i], procs_[i].current) ? 1 : 0;
  }
}

void DistributedTracker::resumeProgress() {
  stopped_ = false;
  frozenActive_.clear();
  for (ProcId p = procLo_; p < procHi_; ++p) pump(p);
}

bool DistributedTracker::protocolComplete(const OpState& op) const {
  switch (op.rec.kind) {
    case Kind::kSend:
    case Kind::kIsend:
      return op.gotRecvActive && op.sentRecvActiveAck &&
             op.pendingProbeAcks == nullptr;
    case Kind::kRecv:
    case Kind::kIrecv:
      return op.matched && op.gotAck;
    case Kind::kSendrecv:
      return op.gotRecvActive && op.sentRecvActiveAck &&
             op.pendingProbeAcks == nullptr && op.matched && op.gotAck;
    case Kind::kCollective:
      return op.gotCollAck;
    case Kind::kProbe:
      return op.gotAck;
    case Kind::kFinalize:
      return false;
    default:
      return true;  // Iprobe / Test* / Wait* carry no pending protocol work
  }
}

void DistributedTracker::retireFront(ProcState& ps) {
  while (!ps.window.empty() && ps.windowBase < ps.current &&
         protocolComplete(ps.window.front())) {
    const OpState& front = ps.window.front();
    // Completion calls that definitively consumed their requests release the
    // request table entries.
    const Kind k = front.rec.kind;
    if (k == Kind::kWait || k == Kind::kWaitall) {
      for (mpi::RequestId req : front.rec.completes) ps.requests.erase(req);
    } else if (k == Kind::kTest || k == Kind::kTestall) {
      for (mpi::RequestId req : front.rec.completes) {
        const auto it = ps.requests.find(req);
        if (it != ps.requests.end() && it->second.reached) {
          ps.requests.erase(it);
        }
      }
    }
    ps.window.pop_front();
    ++ps.windowBase;
  }
}

// --- matching ---------------------------------------------------------------------

void DistributedTracker::enqueueRecvLike(ProcId proc, LocalTs ts) {
  const OpState* op = findOp(proc, ts);
  WST_ASSERT(op != nullptr, "enqueueRecvLike: missing op");
  const mpi::CommId comm = op->rec.comm;
  pendingRecvs_[{proc, comm}].recvs.push_back(ts);
}

void DistributedTracker::tryMatch(ProcId proc, mpi::CommId comm) {
  const auto it = pendingRecvs_.find({proc, comm});
  if (it == pendingRecvs_.end()) return;
  RecvQueue& queue = it->second;
  auto& list = queue.recvs;

  // Tags an unresolved wildcard ahead in the queue could still claim; sends
  // with such tags must not be matched by later receives.
  bool anyTagBlocked = false;
  bool matchedAny = false;
  std::vector<mpi::Tag> blockedTags;

  // Once no unmatched send is left, the rest of the walk could only update
  // the blocked-tag state above, so it stops there.
  for (auto lit = list.begin(); lit != list.end() && queue.sends != 0;) {
    OpState* op = findOp(proc, *lit);
    WST_ASSERT(op != nullptr, "pending receive missing from window");
    const Record& r = op->rec;
    const mpi::Rank wantSrc =
        r.kind == Kind::kSendrecv ? r.recvPeer : r.peer;
    const mpi::Tag wantTag = r.kind == Kind::kSendrecv ? r.recvTag : r.tag;

    if (wantSrc == mpi::kAnySource && !op->wildcardResolved) {
      // Head-of-line wildcard: its matching decision is unknown; block the
      // tags it could claim for everything behind it.
      if (wantTag == mpi::kAnyTag) {
        anyTagBlocked = true;
        break;  // it could claim anything: full stall
      }
      blockedTags.push_back(wantTag);
      ++lit;
      continue;
    }

    const mpi::Rank source =
        op->wildcardResolved ? op->resolvedSource : wantSrc;
    const mpi::Tag matchTag =
        op->wildcardResolved ? op->resolvedTag : wantTag;

    const auto chIt = channels_.find(ChannelKey{source, proc, comm});
    const PassSendMsg* found = nullptr;
    std::size_t foundIdx = 0;
    if (chIt != channels_.end()) {
      for (std::size_t i = 0; i < chIt->second.pending.size(); ++i) {
        const PassSendMsg& send = chIt->second.pending[i];
        if (matchTag != mpi::kAnyTag && send.tag != matchTag) continue;
        if (anyTagBlocked) continue;
        if (std::find(blockedTags.begin(), blockedTags.end(), send.tag) !=
            blockedTags.end()) {
          continue;  // an earlier unresolved wildcard could claim this send
        }
        found = &send;
        foundIdx = i;
        break;
      }
    }
    if (found != nullptr) {
      const PassSendMsg send = *found;
      Channel& chan = chIt->second;
      chan.history.push_back(ConsumedSend{send, op->rec.id});
      if (config_.consumedHistory != 0 &&
          chan.history.size() > config_.consumedHistory) {
        evictConsumed(chan);
      }
      chan.pending.erase(chan.pending.begin() +
                         static_cast<std::ptrdiff_t>(foundIdx));
      --queue.sends;
      performMatch(proc, *op, send);
      lit = list.erase(lit);
      matchedAny = true;
    } else {
      ++lit;
    }
  }
  // Each match may open the program-order gate of a pending probe (the
  // probe could not observe the store while an earlier receive was
  // undecided).
  if (matchedAny) recheckProbes(proc);
}

void DistributedTracker::evictConsumed(Channel& chan) {
  // A probe that names an evicted send can never resolve; the counters make
  // that failure mode observable.
  if (chan.unpinned == 0) {
    if (pinnedCounter_ != nullptr) pinnedCounter_->add();
    return;
  }
  // A retired consumer finished its handshake, so it is unpinned too.
  const auto it = std::find_if(
      chan.history.begin(), chan.history.end(), [&](const ConsumedSend& e) {
        const OpState* consumer = findOp(e.consumer.proc, e.consumer.ts);
        return consumer == nullptr || consumer->gotAck;
      });
  WST_ASSERT(it != chan.history.end(), "unpinned history entry missing");
  chan.history.erase(it);
  --chan.unpinned;
  if (evictionCounter_ != nullptr) evictionCounter_->add();
}

void DistributedTracker::performMatch(ProcId proc, OpState& recv,
                                      const PassSendMsg& send) {
  WST_ASSERT(!recv.matched, "receive matched twice");
  recv.matched = true;
  recv.matchedSend = send.sendOp;
  if (config_.trace != nullptr) {
    config_.trace->instant("match", "tracker", "recvProc", proc, "sendProc",
                           send.sendOp.proc);
  }
  touch(proc);
  maybeSendRecvActive(proc, recv);
}

void DistributedTracker::maybeSendRecvActive(ProcId proc, OpState& op) {
  if (!op.matched || op.sentRecvActive) return;
  if (!reachedLocally(state(proc), op.rec.id.ts)) return;
  comms_.recvActive(op.matchedSend.proc,
                    RecvActiveMsg{op.matchedSend, op.rec.id, false});
  op.sentRecvActive = true;
}

void DistributedTracker::satisfyProbes(ProcId dst, const PassSendMsg& send) {
  auto& probes = pendingProbes_[static_cast<std::size_t>(dst - procLo_)];
  for (auto it = probes.begin(); it != probes.end();) {
    OpState* probe = findOp(dst, *it);
    WST_ASSERT(probe != nullptr, "pending probe missing from window");
    if (!probeOrderReached(dst, *probe, send.sendOp.proc, send.tag,
                           send.comm)) {
      // An earlier receive of this process is still unmatched and may claim
      // this send; recheckProbes() revisits once it matches.
      ++it;
      continue;
    }
    const Record& r = probe->rec;
    bool compatible = false;
    if (probe->wildcardResolved) {
      compatible = send.sendOp.proc == probe->resolvedSource &&
                   send.tag == probe->resolvedTag && send.comm == r.comm;
    } else if (r.peer != mpi::kAnySource) {
      compatible = send.sendOp.proc == r.peer && send.comm == r.comm &&
                   (r.tag == mpi::kAnyTag || r.tag == send.tag);
    }
    if (compatible && !probe->matched) {
      probe->matched = true;
      probe->matchedSend = send.sendOp;
      touch(dst);
      if (reachedLocally(state(dst), r.id.ts) && !probe->sentRecvActive) {
        comms_.recvActive(probe->matchedSend.proc,
                          RecvActiveMsg{probe->matchedSend, r.id, true});
        probe->sentRecvActive = true;
      }
      it = probes.erase(it);
    } else {
      ++it;
    }
  }
}

bool DistributedTracker::probeOrderReached(ProcId proc, const OpState& probe,
                                           mpi::Rank sendSrc, mpi::Tag sendTag,
                                           mpi::CommId sendComm) const {
  const ProcState& ps = procs_[static_cast<std::size_t>(proc - procLo_)];
  for (const OpState& op : ps.window) {
    if (op.rec.id.ts >= probe.rec.id.ts) break;
    const Kind k = op.rec.kind;
    if (!(k == Kind::kRecv || k == Kind::kIrecv || k == Kind::kSendrecv) ||
        op.matched) {
      continue;
    }
    if (op.rec.comm != sendComm) continue;
    mpi::Rank wantSrc = k == Kind::kSendrecv ? op.rec.recvPeer : op.rec.peer;
    mpi::Tag wantTag = k == Kind::kSendrecv ? op.rec.recvTag : op.rec.tag;
    if (op.wildcardResolved) {
      wantSrc = op.resolvedSource;
      wantTag = op.resolvedTag;
    }
    const bool srcOk = wantSrc == mpi::kAnySource || wantSrc == sendSrc;
    const bool tagOk = wantTag == mpi::kAnyTag || wantTag == sendTag;
    if (srcOk && tagOk) return false;  // that receive may claim this send
  }
  return true;
}

void DistributedTracker::recheckProbes(ProcId proc) {
  auto& probes = pendingProbes_[static_cast<std::size_t>(proc - procLo_)];
  for (auto it = probes.begin(); it != probes.end();) {
    OpState* probe = findOp(proc, *it);
    WST_ASSERT(probe != nullptr, "pending probe missing from window");
    if (probe->matched) {
      it = probes.erase(it);
      continue;
    }
    const Record& r = probe->rec;
    mpi::Rank source = mpi::kAnySource;
    mpi::Tag tag = mpi::kAnyTag;
    if (probe->wildcardResolved) {
      source = probe->resolvedSource;
      tag = probe->resolvedTag;
    } else if (r.peer != mpi::kAnySource) {
      source = r.peer;
      tag = r.tag;
    }
    if (source == mpi::kAnySource) {
      ++it;  // unresolved wildcard probe: only MatchInfo can resolve it
      continue;
    }
    const PassSendMsg* found = nullptr;
    const auto chIt = channels_.find(ChannelKey{source, proc, r.comm});
    if (chIt != channels_.end()) {
      for (const PassSendMsg& send : chIt->second.pending) {
        if (tag != mpi::kAnyTag && send.tag != tag) continue;
        if (!probeOrderReached(proc, *probe, source, send.tag, r.comm)) {
          // An earlier receive may claim this send; once it matches, the
          // send leaves the channel and this probe is rechecked again.
          break;
        }
        found = &send;
        break;
      }
    }
    if (found == nullptr) {
      ++it;
      continue;
    }
    probe->matched = true;
    probe->matchedSend = found->sendOp;
    touch(proc);
    if (reachedLocally(state(proc), r.id.ts) && !probe->sentRecvActive) {
      comms_.recvActive(probe->matchedSend.proc,
                        RecvActiveMsg{probe->matchedSend, r.id, true});
      probe->sentRecvActive = true;
    }
    it = probes.erase(it);
  }
}

void DistributedTracker::resolveProbe(ProcId proc, OpState& probe) {
  if (probe.matched) return;
  const Record& r = probe.rec;
  const auto it =
      channels_.find(ChannelKey{probe.resolvedSource, proc, r.comm});
  if (it == channels_.end()) return;  // passSend not yet here
  const Channel& chan = it->second;
  const PassSendMsg* found = nullptr;
  for (const PassSendMsg& send : chan.pending) {
    if (send.tag == probe.resolvedTag) {
      found = &send;
      break;
    }
  }
  if (found == nullptr) {
    for (const ConsumedSend& entry : chan.history) {
      // A send consumed by an op that precedes the probe in program order
      // was gone before the probe executed — it cannot be what the probe
      // observed (the consumer of a send to this process is always this
      // process, so timestamps are comparable).
      if (entry.send.tag == probe.resolvedTag &&
          entry.consumer.ts > r.id.ts) {
        found = &entry.send;
        break;
      }
    }
  }
  if (found == nullptr) return;  // passSend not yet here; satisfyProbes later
  probe.matched = true;
  probe.matchedSend = found->sendOp;
  touch(proc);
  std::erase(pendingProbes_[static_cast<std::size_t>(proc - procLo_)],
             r.id.ts);
  if (reachedLocally(state(proc), r.id.ts) && !probe.sentRecvActive) {
    comms_.recvActive(probe.matchedSend.proc,
                      RecvActiveMsg{probe.matchedSend, r.id, true});
    probe.sentRecvActive = true;
  }
}

// --- message handlers -----------------------------------------------------------

void DistributedTracker::onPassSend(const PassSendMsg& msg) {
  WST_ASSERT(hosts(msg.destProc), "passSend routed to the wrong node");
  satisfyProbes(msg.destProc, msg);
  channels_[ChannelKey{msg.sendOp.proc, msg.destProc, msg.comm}]
      .pending.push_back(msg);
  ++pendingRecvs_[{msg.destProc, msg.comm}].sends;
  tryMatch(msg.destProc, msg.comm);
  pump(msg.destProc);
}

void DistributedTracker::onMatchInfo(const trace::MatchInfoEvent& info) {
  const ProcId p = info.recvOp.proc;
  OpState* op = findOp(p, info.recvOp.ts);
  if (op == nullptr || op->matched) return;  // already matched and handled
  op->wildcardResolved = true;
  op->resolvedSource = info.source;
  op->resolvedTag = info.tag;
  touch(p);
  if (op->rec.kind == Kind::kProbe) {
    resolveProbe(p, *op);
  } else {
    tryMatch(p, op->rec.comm);
    // Resolution narrows what this receive can claim, which may open the
    // program-order gate of a pending probe even when no match landed.
    recheckProbes(p);
  }
  pump(p);
}

void DistributedTracker::onRecvActive(const RecvActiveMsg& msg) {
  const ProcId p = msg.sendOp.proc;
  WST_ASSERT(hosts(p), "recvActive routed to the wrong node");
  ProcState& ps = state(p);
  OpState* send = findOp(p, msg.sendOp.ts);

  if (msg.forProbe) {
    if (send == nullptr) {
      // Retired: the send completed its protocol, hence it was reached.
      comms_.recvActiveAck(msg.recvOp.proc, RecvActiveAckMsg{msg.recvOp, true});
      return;
    }
    if (reachedLocally(ps, msg.sendOp.ts)) {
      comms_.recvActiveAck(msg.recvOp.proc, RecvActiveAckMsg{msg.recvOp, true});
    } else {
      if (send->pendingProbeAcks == nullptr) {
        send->pendingProbeAcks = std::make_unique<std::vector<OpId>>();
      }
      send->pendingProbeAcks->push_back(msg.recvOp);
      touch(p);
    }
    return;
  }

  WST_ASSERT(send != nullptr, "recvActive for an unknown send");
  WST_ASSERT(!send->gotRecvActive, "send received recvActive twice");
  send->gotRecvActive = true;
  send->matchedRecv = msg.recvOp;
  touch(p);
  if (send->rec.kind == Kind::kIsend) {
    // Rule 4 premise for a completion of this Isend: matching receive
    // reached — which is exactly what this message asserts.
    markRequestReached(p, send->rec.request);
  }
  if (reachedLocally(ps, msg.sendOp.ts) && !send->sentRecvActiveAck) {
    comms_.recvActiveAck(msg.recvOp.proc, RecvActiveAckMsg{msg.recvOp, false});
    send->sentRecvActiveAck = true;
  }
  pump(p);
  retireFront(ps);
}

void DistributedTracker::onRecvActiveAck(const RecvActiveAckMsg& msg) {
  const ProcId p = msg.recvOp.proc;
  WST_ASSERT(hosts(p), "recvActiveAck routed to the wrong node");
  OpState* op = findOp(p, msg.recvOp.ts);
  if (msg.forProbe) {
    if (op != nullptr) {
      op->gotAck = true;
      touch(p);
      pump(p);
    }
    return;
  }
  WST_ASSERT(op != nullptr, "recvActiveAck for an unknown receive");
  if (!op->gotAck) {
    // The ack unpins the consumer's history entry; gotAck never turns
    // false again, so the entry stays unpinned until evicted.
    const auto chan = channels_.find(
        ChannelKey{op->matchedSend.proc, p, op->rec.comm});
    WST_ASSERT(op->matched && chan != channels_.end(),
               "recvActiveAck for an unmatched receive");
    ++chan->second.unpinned;
    op->gotAck = true;
  }
  touch(p);
  if (op->rec.kind == Kind::kIrecv) {
    markRequestReached(p, op->rec.request);
  }
  pump(p);
  retireFront(state(p));
}

void DistributedTracker::markRequestReached(ProcId proc,
                                            mpi::RequestId request) {
  ProcState& ps = state(proc);
  const auto it = ps.requests.find(request);
  if (it != ps.requests.end()) {
    it->second.reached = true;
    touch(proc);
  }
}

// --- collectives ----------------------------------------------------------------

std::uint32_t DistributedTracker::hostedCountInGroup(mpi::CommId comm) const {
  // Groups are immutable once a communicator exists, so both the count and
  // the hosted-member list are resolved once per comm, not once per message.
  return hostedGroupCache(comm).count;
}

const DistributedTracker::HostedGroup& DistributedTracker::hostedGroupCache(
    mpi::CommId comm) const {
  auto it = hostedGroups_.find(comm);
  if (it == hostedGroups_.end()) {
    HostedGroup cached;
    for (const ProcId member : commView_.group(comm)) {
      if (hosts(member)) cached.members.push_back(member);
    }
    cached.count = static_cast<std::uint32_t>(cached.members.size());
    it = hostedGroups_.emplace(comm, std::move(cached)).first;
  }
  return it->second;
}

void DistributedTracker::onCollectiveActivated(ProcId /*proc*/, OpState& op) {
  const auto key = std::make_pair(op.rec.comm, op.wave);
  NodeWave& wave = collWaves_[key];
  ++wave.activeCount;
  const std::uint32_t hosted = hostedCountInGroup(op.rec.comm);
  if (!wave.readySent && wave.activeCount == hosted) {
    CollectiveReadyMsg msg;
    msg.comm = op.rec.comm;
    msg.wave = op.wave;
    msg.readyCount = hosted;
    msg.kind = op.rec.collective;
    comms_.collectiveReady(msg);
    wave.readySent = true;
  }
}

void DistributedTracker::onCollectiveAck(const CollectiveAckMsg& msg) {
  // Duplicate tolerance: crash recovery re-broadcasts the acks of completed
  // waves (an ack lost inside a crashed node's subtree must be replayable).
  // A wave we already acked and retired — or never hosted members of — has
  // no collWaves_ entry; such an ack is a no-op.
  const auto waveIt = collWaves_.find(std::make_pair(msg.comm, msg.wave));
  if (waveIt == collWaves_.end()) return;
  for (const ProcId member : hostedGroupCache(msg.comm).members) {
    // Locate the member's operation of this wave explicitly instead of
    // assuming it is the current one: the acked collective is what keeps
    // the member blocked, but tying the lookup to l_i would silently ack
    // the wrong operation if a non-group op ever sat at `current`.
    ProcState& ps = state(member);
    OpState* op = nullptr;
    for (OpState& cand : ps.window) {
      if (cand.rec.kind == Kind::kCollective && cand.rec.comm == msg.comm &&
          cand.wave == msg.wave) {
        op = &cand;
        break;
      }
    }
    WST_ASSERT(op != nullptr, "collectiveAck for an unknown wave");
    op->gotCollAck = true;
    touch(member);
    pump(member);
  }
  collWaves_.erase(std::make_pair(msg.comm, msg.wave));
}

// --- consistent-state support -----------------------------------------------------

std::vector<ProcId> DistributedTracker::activeSendPeerProcs() const {
  std::vector<ProcId> peers;
  for (ProcId p = procLo_; p < procHi_; ++p) {
    const ProcState& ps = state(p);
    // Every window send still awaiting its recvActive may have handshake
    // messages in flight; flushing their hosts covers the active-send case
    // of paper Figure 8 and outstanding non-blocking sends. A receive or
    // probe whose recvActive is still unacknowledged waits on an ack that
    // may be in flight from the send's host: flush that host too.
    for (const OpState& op : ps.window) {
      if (isSendLikeKind(op.rec.kind) && !op.gotRecvActive) {
        peers.push_back(op.rec.peer);
      }
      if (op.sentRecvActive && !op.gotAck) {
        peers.push_back(op.matchedSend.proc);
      }
    }
  }
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  return peers;
}

void DistributedTracker::appendActiveSends(ProcId p,
                                           std::vector<ActiveSend>& out) const {
  const ProcState& ps = state(p);
  if (ps.finished || !opArrived(ps, ps.current)) return;
  const OpState* op = findOp(p, ps.current);
  if (op == nullptr) return;
  const Record& r = op->rec;
  if (r.kind == Kind::kSend || r.kind == Kind::kSendrecv) {
    out.push_back(ActiveSend{r.id, r.peer, r.tag, r.comm});
  }
}

std::vector<DistributedTracker::ActiveSend> DistributedTracker::activeSends()
    const {
  std::vector<ActiveSend> out;
  for (ProcId p = procLo_; p < procHi_; ++p) appendActiveSends(p, out);
  return out;
}

void DistributedTracker::appendActiveWildcards(
    ProcId p, std::vector<ActiveWildcard>& out) const {
  const auto add = [&](const OpState& op, mpi::Rank want, mpi::Tag tag,
                       mpi::CommId comm) {
    if (want != mpi::kAnySource) return;
    ActiveWildcard w;
    w.op = op.rec.id;
    w.tag = tag;
    w.comm = comm;
    w.matched = op.matched || op.wildcardResolved;
    if (op.matched) {
      w.matchedSend = op.matchedSend;
    } else if (op.wildcardResolved) {
      // Resolved but the identified send's description has not arrived:
      // treat as matched to an unknown (not active) send of the source.
      w.matchedSend = trace::OpId{op.resolvedSource, 0};
    }
    out.push_back(w);
  };
  const ProcState& ps = state(p);
  if (ps.finished || !opArrived(ps, ps.current)) return;
  const OpState* op = findOp(p, ps.current);
  if (op == nullptr || canAdvanceOp(ps, *op)) return;
  const Record& r = op->rec;
  switch (r.kind) {
    case Kind::kRecv:
    case Kind::kProbe:
      add(*op, r.peer, r.tag, r.comm);
      break;
    case Kind::kSendrecv:
      if (!op->gotAck) add(*op, r.recvPeer, r.recvTag, r.comm);
      break;
    case Kind::kWait:
    case Kind::kWaitall:
    case Kind::kWaitany:
    case Kind::kWaitsome: {
      for (const mpi::RequestId req : r.completes) {
        const auto it = ps.requests.find(req);
        if (it == ps.requests.end() || it->second.reached) continue;
        const Record& origin = it->second.origin;
        if (origin.kind != Kind::kIrecv) continue;
        if (const OpState* originOp = findOp(p, origin.id.ts)) {
          add(*originOp, origin.peer, origin.tag, origin.comm);
        }
      }
      break;
    }
    default:
      break;
  }
}

std::vector<DistributedTracker::ActiveWildcard>
DistributedTracker::activeWildcards() const {
  std::vector<ActiveWildcard> out;
  for (ProcId p = procLo_; p < procHi_; ++p) appendActiveWildcards(p, out);
  return out;
}

void DistributedTracker::markReported(ProcId proc) {
  const auto i = static_cast<std::size_t>(proc - procLo_);
  const ProcState& ps = procs_[i];
  // A process whose active op arrived only after the consistent-state freeze
  // was reported as "running" (see waitConditions), not with its real
  // conditions: store the 0 sentinel so it stays dirty for the next round.
  const bool suppressed = stopped_ && !ps.finished &&
                          opArrived(ps, ps.current) && !frozenActive_[i];
  reportedVersions_[i] = suppressed ? 0 : versions_[i];
}

// --- wait conditions ----------------------------------------------------------------

wfg::NodeConditions DistributedTracker::waitConditions(ProcId proc) const {
  const ProcState& ps = state(proc);
  wfg::NodeConditions node;
  node.proc = proc;
  if (ps.finished) {
    node.description = "finished";
    node.finished = true;
    return node;
  }
  if (!opArrived(ps, ps.current)) {
    node.description = "running";
    return node;
  }
  if (stopped_ &&
      !frozenActive_[static_cast<std::size_t>(proc - procLo_)]) {
    // The operation became active after the consistent-state freeze: its
    // wait-state handshakes were not flushed by the synchronization, so its
    // process made progress up to the cut and is reported as running.
    node.description = "running";
    return node;
  }
  const OpState* op = findOp(proc, ps.current);
  WST_ASSERT(op != nullptr, "active operation missing from window");
  const Record& r = op->rec;
  node.description = trace::describe(r);
  if (r.kind == Kind::kFinalize || canAdvanceOp(ps, *op)) {
    return node;  // not blocked (a transition exists or the proc is done)
  }
  node.blocked = true;

  const auto singleTarget = [&](ProcId target, std::string reason) {
    wfg::Clause clause;
    clause.targets.push_back(target);
    clause.reason = std::move(reason);
    node.clauses.push_back(std::move(clause));
  };
  const auto wildcardClause = [&](mpi::CommId comm, const char* what) {
    wfg::Clause clause;
    for (const ProcId member : commView_.group(comm)) {
      if (member != proc) clause.targets.push_back(member);
    }
    clause.reason =
        support::format("%s from any rank in comm %d", what, comm);
    node.clauses.push_back(std::move(clause));
  };
  const auto recvTarget = [&](const OpState& recvOp, mpi::Rank want,
                              mpi::CommId comm, const char* what) {
    if (recvOp.matched) {
      singleTarget(recvOp.matchedSend.proc,
                   support::format("%s: waits for op %u of rank %d", what,
                                   recvOp.matchedSend.ts,
                                   recvOp.matchedSend.proc));
    } else if (recvOp.wildcardResolved) {
      singleTarget(recvOp.resolvedSource,
                   support::format("%s: waits for rank %d", what,
                                   recvOp.resolvedSource));
    } else if (want != mpi::kAnySource) {
      singleTarget(want, support::format("%s: waits for a send from rank %d",
                                         what, want));
    } else {
      wildcardClause(comm, what);
    }
  };

  switch (r.kind) {
    case Kind::kSend:
      singleTarget(r.peer, support::format("waits for a receive by rank %d",
                                           r.peer));
      break;
    case Kind::kRecv:
    case Kind::kProbe:
      recvTarget(*op, r.peer, r.comm, "waits for a send");
      break;
    case Kind::kSendrecv:
      if (!op->gotRecvActive) {
        singleTarget(r.peer,
                     support::format("send half waits for a receive by %d",
                                     r.peer));
      }
      if (!op->gotAck) {
        recvTarget(*op, r.recvPeer, r.comm, "receive half waits for a send");
      }
      break;
    case Kind::kCollective: {
      node.inCollective = true;
      node.collComm = r.comm;
      node.collWaveIndex = op->wave;
      for (const ProcId member : commView_.group(r.comm)) {
        if (member == proc) continue;
        wfg::Clause clause;
        clause.targets.push_back(member);
        clause.type = wfg::ClauseType::kCollective;
        clause.comm = r.comm;
        clause.waveIndex = op->wave;
        clause.reason = support::format(
            "waits for rank %d to enter %s on comm %d", member,
            mpi::toString(r.collective), r.comm);
        node.clauses.push_back(std::move(clause));
      }
      break;
    }
    case Kind::kWait:
    case Kind::kWaitall:
    case Kind::kWaitany:
    case Kind::kWaitsome: {
      const bool needAll = r.completionNeedsAll();
      wfg::Clause anyClause;
      for (mpi::RequestId req : r.completes) {
        const auto it = ps.requests.find(req);
        if (it != ps.requests.end() && it->second.reached) continue;
        std::vector<ProcId> targets;
        std::string reason;
        if (it == ps.requests.end()) {
          reason = support::format("waits for unknown request %d", req);
        } else {
          const Record& origin = it->second.origin;
          const OpState* originOp = findOp(proc, origin.id.ts);
          const bool resolved =
              originOp != nullptr &&
              (originOp->matched || originOp->wildcardResolved);
          if (resolved) {
            const ProcId target = originOp->matched
                                      ? originOp->matchedSend.proc
                                      : originOp->resolvedSource;
            targets.push_back(target);
            reason = support::format("waits for rank %d (%s)", target,
                                     trace::describe(origin).c_str());
          } else if (origin.peer != mpi::kAnySource) {
            targets.push_back(origin.peer);
            reason = support::format("waits for rank %d (%s)", origin.peer,
                                     trace::describe(origin).c_str());
          } else {
            for (const ProcId member : commView_.group(origin.comm)) {
              if (member != proc) targets.push_back(member);
            }
            reason = support::format("waits for any sender (%s)",
                                     trace::describe(origin).c_str());
          }
        }
        if (needAll) {
          wfg::Clause clause;
          clause.targets = std::move(targets);
          clause.reason = std::move(reason);
          node.clauses.push_back(std::move(clause));
        } else {
          anyClause.targets.insert(anyClause.targets.end(), targets.begin(),
                                   targets.end());
          if (!anyClause.reason.empty()) anyClause.reason += "; ";
          anyClause.reason += reason;
        }
      }
      if (!needAll) node.clauses.push_back(std::move(anyClause));
      break;
    }
    default:
      node.clauses.push_back(wfg::Clause{});
      break;
  }
  return node;
}

}  // namespace wst::waitstate
