#include "must/serve.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "sim/session_pool.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"
#include "wfg/report.hpp"

namespace wst::must {

namespace {

/// Terminal observation shared by the solo and served paths: everything here
/// reads session-local state only, so it is byte-identical regardless of
/// how the engine was driven to completion.
void collectTerminal(SessionResult& result, sim::ParallelEngine& engine,
                     DistributedTool& tool) {
  result.completed = true;
  result.deadlock = tool.deadlockFound();
  result.detections = tool.detectionsRun();
  result.completionTime = engine.now();
  result.traceHash = engine.traceHash();
  result.eventsExecuted = engine.eventsExecuted();
  result.metricsJson = tool.metricsJson();

  // Canonical DOT of the terminal wait-for graph, rebuilt from the trackers
  // (deterministic: tracker state is part of the verdict).
  const wfg::WaitForGraph graph = tool.terminalGraph();
  const wfg::CheckResult check = graph.check();
  std::string dot;
  wfg::Report report = wfg::makeReport(
      graph, check, [&dot](std::string_view chunk) { dot += chunk; });
  result.dot = std::move(dot);
  result.summary = std::move(report.summary);
}

}  // namespace

/// The per-session stack. Owned by the server; only ever touched by one
/// thread per round (atomic claiming in the pool) and by the server thread
/// between rounds.
struct ServeServer::Session {
  explicit Session(SessionSpec s)
      : spec(std::move(s)),
        runtime(engine, spec.mpiConfig, spec.procs),
        tool(engine, runtime, spec.tool) {
    result.name = spec.name;
  }

  SessionSpec spec;
  sim::ParallelEngine engine;
  mpi::Runtime runtime;
  DistributedTool tool;
  SessionResult result;
  bool started = false;
  bool done = false;
};

ServeServer::ServeServer(Config config) : config_(config) {}
ServeServer::~ServeServer() = default;

std::string firstDifference(const SessionResult& a, const SessionResult& b) {
  if (a.name != b.name) return "name";
  if (a.completed != b.completed) return "completed";
  if (a.evicted != b.evicted) return "evicted";
  if (a.deadlock != b.deadlock) return "verdict";
  if (a.detections != b.detections) return "detections";
  if (a.completionTime != b.completionTime) return "completion time";
  if (a.traceHash != b.traceHash) return "trace hash";
  if (a.eventsExecuted != b.eventsExecuted) return "events executed";
  if (a.metricsJson != b.metricsJson) return "metrics JSON";
  if (a.dot != b.dot) return "DOT";
  if (a.summary != b.summary) return "summary";
  return {};
}

SessionResult runSessionSolo(const SessionSpec& spec) {
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, spec.mpiConfig, spec.procs);
  DistributedTool tool(engine, runtime, spec.tool);
  runtime.runToCompletion(spec.program);
  SessionResult result;
  result.name = spec.name;
  collectTerminal(result, engine, tool);
  return result;
}

void ServeServer::submit(SessionSpec spec) {
  submitOrder_.push_back(spec.name);
  pending_.push_back(std::move(spec));
}

void ServeServer::evictAfterRounds(const std::string& name,
                                   std::uint64_t rounds) {
  evictions_.emplace_back(name, rounds);
}

void ServeServer::admitPending() {
  while (nextPending_ < pending_.size() &&
         active_.size() < static_cast<std::size_t>(config_.sessionCap)) {
    active_.push_back(
        std::make_unique<Session>(std::move(pending_[nextPending_])));
    ++nextPending_;
    ++admitted_;
  }
}

void ServeServer::finishSession(Session& s, bool evict) {
  s.result.evicted = evict;
  if (evict) {
    // Partial observation: the session is torn down mid-run, but its
    // isolated namespaces still yield a consistent snapshot.
    s.result.completed = false;
    s.result.deadlock = s.tool.deadlockFound();
    s.result.detections = s.tool.detectionsRun();
    s.result.completionTime = s.engine.now();
    s.result.traceHash = s.engine.traceHash();
    s.result.eventsExecuted = s.engine.eventsExecuted();
    s.result.metricsJson = s.tool.metricsJson();
    ++evicted_;
  } else {
    collectTerminal(s.result, s.engine, s.tool);
    ++completed_;
  }
  if (s.result.deadlock) ++deadlocks_;
  results_.push_back(std::move(s.result));
}

void ServeServer::run() {
  WST_ASSERT(config_.sessionCap >= 1, "serve needs a session slot");
  WST_ASSERT(config_.sliceEvents >= 1, "serve needs a nonzero slice");
  sim::SessionPool pool(config_.threads);
  admitPending();
  while (!active_.empty()) {
    // One scheduling round: every live session advances by one slice, on
    // whichever worker claims it first. Session state is handed between
    // threads only through the pool's round barrier.
    pool.forEach(active_.size(), [&](std::size_t i) {
      Session& s = *active_[i];
      if (!s.started) {
        s.started = true;
        s.runtime.start(s.spec.program);
      }
      ++s.result.rounds;
      s.done = s.engine.runSlice(s.result.rounds * config_.sliceEvents);
    });
    ++roundsRun_;

    // Between rounds (no worker holds a session): collect completions,
    // apply due evictions, admit queued sessions into the freed slots.
    for (auto it = active_.begin(); it != active_.end();) {
      Session& s = **it;
      bool evictNow = false;
      if (!s.done) {
        for (const auto& [name, rounds] : evictions_) {
          if (name == s.spec.name && s.result.rounds >= rounds) {
            evictNow = true;
            break;
          }
        }
      }
      if (s.done || evictNow) {
        finishSession(s, evictNow);
        it = active_.erase(it);
      } else {
        ++it;
      }
    }
    admitPending();
  }
  // Results in submission order, not completion order: stable across
  // thread counts and slice interleavings. A name submitted more than once
  // ranks at its first submission, so its results keep completion order.
  std::unordered_map<std::string_view, std::size_t> firstSubmission;
  for (std::size_t i = 0; i < submitOrder_.size(); ++i) {
    firstSubmission.emplace(submitOrder_[i], i);
  }
  std::stable_sort(results_.begin(), results_.end(),
                   [&](const SessionResult& a, const SessionResult& b) {
                     return firstSubmission.at(a.name) <
                            firstSubmission.at(b.name);
                   });
}

std::string ServeServer::statusJson() const {
  std::string out = support::format(
      "{\"schema\": \"wst-serve-v1\", \"threads\": %d, \"session_cap\": %d, "
      "\"slice_events\": %llu, \"rounds\": %llu, \"admitted\": %llu, "
      "\"completed\": %llu, \"evicted\": %llu, \"deadlocks\": %llu, "
      "\"active\": %zu, \"sessions\": [",
      config_.threads, config_.sessionCap,
      static_cast<unsigned long long>(config_.sliceEvents),
      static_cast<unsigned long long>(roundsRun_),
      static_cast<unsigned long long>(admitted_),
      static_cast<unsigned long long>(completed_),
      static_cast<unsigned long long>(evicted_),
      static_cast<unsigned long long>(deadlocks_), active_.size());
  bool first = true;
  for (const SessionResult& r : results_) {
    out += first ? "{\"name\": \"" : ", {\"name\": \"";
    support::appendJsonEscaped(out, r.name);
    out += support::format(
        "\", \"state\": \"%s\", \"deadlock\": %s, "
        "\"detections\": %u, \"time_ns\": %lld, \"events\": %llu, "
        "\"rounds\": %llu}",
        r.evicted ? "evicted" : "completed", r.deadlock ? "true" : "false",
        r.detections, static_cast<long long>(r.completionTime),
        static_cast<unsigned long long>(r.eventsExecuted),
        static_cast<unsigned long long>(r.rounds));
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace wst::must
