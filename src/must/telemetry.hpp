// Streaming status endpoint (DESIGN.md §16): a cadence timer on the root
// tool node periodically renders the tool's live status document
// (wst-status-v1 JSON) plus a Prometheus text exposition, and rewrites both
// on disk so an operator can `watch cat status.json` / scrape the .prom
// sibling while the run progresses.
//
// Determinism: the cadence tick only *requests* a render; the actual
// snapshot happens inside Scheduler::atNextCut, the same single-threaded
// coordinator window the metrics timeline uses. Since cut placement in the
// parallel engine depends only on the event horizon (not worker count), the
// rendered documents are byte-identical across --threads 1..N. Writes go
// through a temp file + rename so a reader never sees a torn document.
#pragma once

#include <cstdint>
#include <string>

#include "must/tool.hpp"
#include "sim/engine.hpp"

namespace wst::must {

class StatusWriter {
 public:
  struct Config {
    /// Destination of the JSON status document; the Prometheus exposition
    /// goes to "<path>.prom". Empty path keeps the render in-memory only
    /// (tests read lastStatusJson()/lastProm()).
    std::string path;
    /// Virtual ns between rewrites.
    sim::Duration interval = 5'000'000;
  };

  StatusWriter(sim::Scheduler& engine, DistributedTool& tool, Config config);

  /// Arm the cadence timer on the root tool node's LP. Call once, before
  /// engine.run(); like all cadence events the timer only fires while live
  /// work remains, so it never keeps the run alive by itself.
  void start();

  /// Post-run render + rewrite at the engine's final virtual time. Call
  /// after DistributedTool::finalizeTelemetry() so the exposition carries
  /// the final timeline point's values.
  void writeFinal();

  const std::string& lastStatusJson() const { return lastStatus_; }
  const std::string& lastProm() const { return lastProm_; }
  std::uint64_t rewrites() const { return rewrites_; }
  /// Whether the last rewrite landed both the JSON document and its .prom
  /// sibling on disk (false before the first one and with an empty path).
  bool written() const { return written_; }

 private:
  void onTick();
  void render(sim::Time now);

  sim::Scheduler& engine_;
  DistributedTool& tool_;
  Config config_;
  sim::LpId rootLp_ = 0;
  std::string lastStatus_;
  std::string lastProm_;
  std::uint64_t rewrites_ = 0;
  bool written_ = false;
  bool renderPending_ = false;  // root-LP/cut state: collapse tick bursts
};

}  // namespace wst::must
