// Multi-session serving (DESIGN.md §17): `wst serve` runs N independent
// scenarios as co-scheduled sessions over a shared thread pool. Each session
// owns a full stack — a one-thread engine, MPI runtime, distributed tool —
// so it has its own virtual clock and isolated metrics/trace/status
// namespace; the server interleaves them in event slices
// (sim::ParallelEngine::runSlice, which stops only between two engine
// rounds) with a round barrier between slices. Admission, eviction and
// result collection happen only between rounds, when no worker holds a
// session, so session lifecycle never races session execution.
//
// Determinism contract: a session's observable outcome (verdict, metrics
// JSON, DOT, trace hash) is byte-identical to running it alone with
// runSessionSolo(), for any server thread count and any co-scheduled
// session mix — the slicing changes only *when* a session's events run,
// never their order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mpi/runtime.hpp"
#include "must/tool.hpp"
#include "sim/parallel_engine.hpp"

namespace wst::must {

/// One scenario to serve: the full per-session stack configuration.
struct SessionSpec {
  std::string name;
  std::int32_t procs = 4;
  mpi::RuntimeConfig mpiConfig;
  ToolConfig tool;
  mpi::Runtime::Program program;
};

/// Terminal observation of one session (also produced by runSessionSolo —
/// the serve path must reproduce it byte-for-byte).
struct SessionResult {
  std::string name;
  bool completed = false;  // ran to quiescence (false = evicted mid-run)
  bool evicted = false;
  bool deadlock = false;
  std::uint32_t detections = 0;
  sim::Time completionTime = 0;  // session-local virtual clock
  std::uint64_t traceHash = 0;
  std::uint64_t eventsExecuted = 0;
  std::uint64_t rounds = 0;  // scheduling rounds the session was live
  std::string metricsJson;
  std::string dot;      // canonical DOT of the terminal wait-for graph
  std::string summary;  // one-line verdict
};

/// Run one session to completion on the calling thread (the reference for
/// the serve path's parity guarantee).
SessionResult runSessionSolo(const SessionSpec& spec);

class ServeServer {
 public:
  struct Config {
    std::int32_t threads = 1;
    /// Maximum concurrently admitted sessions; further submissions queue
    /// and are admitted as slots free up, in submission order.
    std::int32_t sessionCap = 8;
    /// Events per session per scheduling round. A slice ends at the first
    /// engine round boundary at or past the session's quota (rounds served
    /// x sliceEvents), so a slice may run a few events more or fewer.
    std::uint64_t sliceEvents = 4096;
  };

  // Out-of-line: Session is incomplete here, and both special members
  // instantiate the active-session vector's destructor.
  explicit ServeServer(Config config);
  ~ServeServer();

  /// Queue a session for admission. Call before run().
  void submit(SessionSpec spec);

  /// Evict `name` once it has been live for `rounds` scheduling rounds
  /// (0 = before its first slice). Eviction happens between rounds; the
  /// session's partial state is captured into its result.
  void evictAfterRounds(const std::string& name, std::uint64_t rounds);

  /// Run scheduling rounds until every submitted session completed or was
  /// evicted.
  void run();

  /// Results in submission order (stable across thread counts).
  const std::vector<SessionResult>& results() const { return results_; }

  /// Serve-level counters.
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t evicted() const { return evicted_; }
  std::uint64_t deadlocks() const { return deadlocks_; }
  std::uint64_t roundsRun() const { return roundsRun_; }

  /// Sessions table + serve counters, in the status-endpoint style of the
  /// tool's statusJson (schema wst-serve-v1).
  std::string statusJson() const;

 private:
  struct Session;

  void admitPending();
  void finishSession(Session& s, bool evict);

  Config config_;
  std::vector<std::string> submitOrder_;
  std::vector<SessionSpec> pending_;  // not yet admitted, FIFO
  std::size_t nextPending_ = 0;
  std::vector<std::unique_ptr<Session>> active_;
  std::vector<SessionResult> results_;
  std::vector<std::pair<std::string, std::uint64_t>> evictions_;
  std::uint64_t admitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t deadlocks_ = 0;
  std::uint64_t roundsRun_ = 0;
};

}  // namespace wst::must
