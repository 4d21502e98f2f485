// Point-to-point simulated communication channel.
//
// Channels model the links of the reproduction's two communication fabrics:
//
//  * application MPI transport (rank <-> rank), and
//  * the tool overlay network (app process -> leaf tool node, intralayer
//    links in the first tool layer, and tree edges of the TBON).
//
// Properties modeled:
//
//  * latency + per-byte cost (bandwidth),
//  * strict FIFO, non-overtaking delivery — the distributed wait state
//    algorithm and the consistent-state protocol of the paper both *depend*
//    on non-overtaking channels (paper §5: "messages in GTI are
//    non-overtaking"), so the channel enforces it structurally: a message's
//    arrival time is clamped to be no earlier than the previous arrival;
//  * optional credit-based flow control: a channel with a finite credit pool
//    blocks producers when the consumer falls behind. This reproduces the
//    back-pressure through which a saturated (e.g. centralized) tool process
//    slows the application down — the effect behind paper Figure 9.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

#include "sim/engine.hpp"
#include "support/assert.hpp"
#include "support/lazy_deque.hpp"
#include "support/rng.hpp"

namespace wst::sim {

struct ChannelConfig {
  /// Fixed one-way latency per message.
  Duration latency = 1 * kMicrosecond;
  /// Additional cost per payload byte (inverse bandwidth).
  Duration perByte = 0;
  /// Credit pool size; 0 means unlimited (no flow control).
  std::uint32_t credits = 0;
  /// Schedule perturbation: each message pays an extra latency drawn
  /// uniformly from [0, jitter], from a per-channel RNG seeded with
  /// jitterSeed — deterministic, replayable adversarial timing. Arrival
  /// times stay monotone (clamped against the previous arrival), so the
  /// non-overtaking guarantee survives jitter. Jitter only ever *adds*
  /// latency, so a declared cross-LP lookahead of `latency` stays valid.
  Duration jitter = 0;
  std::uint64_t jitterSeed = 0;
};

template <typename M>
class Channel {
 public:
  using Deliver = std::function<void(M&&)>;

  Channel(Scheduler& engine, ChannelConfig config, Deliver deliver = {})
      : engine_(engine),
        config_(config),
        deliver_(std::move(deliver)),
        creditsLeft_(config.credits) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Install the delivery callback after construction (the callback often
  /// needs the channel's own address).
  void setDeliver(Deliver deliver) { deliver_ = std::move(deliver); }

  /// Pin the channel between logical processes: sends execute on
  /// `producer`, deliveries run on `consumer`. Channel state (FIFO clock,
  /// credits, waiters) lives on the producer LP — and therefore on the
  /// producer LP's shard: the parallel engine never runs two events of one
  /// LP concurrently, so this state needs no locks, and the delivery hop
  /// below rides the engine's cross-shard SPSC mail rings. Credit returns
  /// are routed back to the producer LP. Defaults to kMainLp on both ends.
  void setEndpoints(LpId producer, LpId consumer) {
    producerLp_ = producer;
    consumerLp_ = consumer;
  }
  LpId producerLp() const { return producerLp_; }
  LpId consumerLp() const { return consumerLp_; }

  /// True if a message may be sent right now without exhausting credits.
  bool hasCredit() const {
    return config_.credits == 0 || creditsLeft_ > 0;
  }

  /// Register a one-shot callback invoked when a credit becomes available.
  /// Callbacks fire in FIFO order, one per returned credit.
  void onceCredit(std::function<void()> cb) {
    WST_ASSERT(config_.credits != 0, "onceCredit on an uncontrolled channel");
    creditWaiters_.push_back(std::move(cb));
  }

  /// Send a message carrying `bytes` of modeled payload. Consumes a credit
  /// when flow control is enabled; the caller must have checked hasCredit().
  void send(M msg, std::size_t bytes) {
    if (config_.credits != 0) {
      WST_ASSERT(creditsLeft_ > 0, "Channel::send without available credit");
      --creditsLeft_;
    }
    sendImpl(std::move(msg), bytes);
  }

  /// Send without consuming a credit. For piggybacked status updates that
  /// must never block the producer (e.g. wildcard MatchInfo events, which in
  /// the real tool ride on an operation's completion).
  void sendUnthrottled(M msg, std::size_t bytes) {
    sendImpl(std::move(msg), bytes);
  }

  /// Return one credit to the pool. Called by the consumer when it has
  /// finished *processing* (not merely receiving) a message, so the credit
  /// pool bounds the total number of in-flight + queued-but-unprocessed
  /// messages, as a finite communication buffer would.
  void returnCredit() {
    if (config_.credits == 0) return;
    if (creditsLeft_ == config_.credits) return;  // unthrottled traffic
    ++creditsLeft_;
    if (!creditWaiters_.empty()) {
      // Wake the longest-waiting producer; it re-checks hasCredit() and
      // consumes the credit via send().
      auto cb = std::move(creditWaiters_.front());
      creditWaiters_.pop_front();
      cb();
    }
  }

  std::uint64_t messagesSent() const { return sent_; }
  std::uint64_t bytesSent() const { return bytesSent_; }
  const ChannelConfig& config() const { return config_; }

 private:
  void sendImpl(M msg, std::size_t bytes) {
    // The link serializes payloads: a message departs only after the
    // previous one cleared the wire (cumulative bandwidth consumption), and
    // arrives one latency later. Monotone departures make the channel
    // non-overtaking by construction.
    const Time depart = std::max(engine_.now(), lastDepart_) +
                        config_.perByte * static_cast<Duration>(bytes);
    lastDepart_ = depart;
    Time arrival = depart + config_.latency;
    if (config_.jitter > 0) {
      arrival += static_cast<Duration>(
          jitterRng_.below(static_cast<std::uint64_t>(config_.jitter) + 1));
      // Jittered arrivals could regress relative to an earlier, more
      // heavily jittered message; re-clamp to keep the channel FIFO.
      arrival = std::max(arrival, lastArrival_);
      lastArrival_ = arrival;
    }
    ++sent_;
    bytesSent_ += bytes;
    // M is moved into the scheduled closure; delivery happens at `arrival`
    // on the consumer's LP.
    engine_.scheduleOn(consumerLp_, arrival, [this, m = std::move(msg)]() mutable {
      deliver_(std::move(m));
    });
  }

  Scheduler& engine_;
  ChannelConfig config_;
  Deliver deliver_;
  LpId producerLp_ = kMainLp;
  LpId consumerLp_ = kMainLp;
  Time lastDepart_ = 0;
  Time lastArrival_ = 0;
  support::Rng jitterRng_{config_.jitterSeed};
  std::uint32_t creditsLeft_ = 0;
  // Only credit-limited channels ever wait, and rarely: allocate lazily.
  support::LazyDeque<std::function<void()>> creditWaiters_;
  std::uint64_t sent_ = 0;
  std::uint64_t bytesSent_ = 0;
};

}  // namespace wst::sim
