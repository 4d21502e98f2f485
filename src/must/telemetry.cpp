#include "must/telemetry.hpp"

#include <cstdio>
#include <utility>

namespace wst::must {

namespace {

/// Write-then-rename so concurrent readers of the status path never observe
/// a partially written document. Returns whether the document landed; the
/// caller only records a failure: telemetry must never abort a run over a
/// full disk or an unwritable path.
bool replaceFile(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  if (written && closed && std::rename(tmp.c_str(), path.c_str()) == 0) {
    return true;
  }
  std::remove(tmp.c_str());
  return false;
}

}  // namespace

StatusWriter::StatusWriter(sim::Scheduler& engine, DistributedTool& tool,
                           Config config)
    : engine_(engine), tool_(tool), config_(std::move(config)) {
  rootLp_ = tool_.overlay().nodeLp(tool_.topology().root());
}

void StatusWriter::start() {
  if (config_.interval <= 0) return;
  engine_.scheduleCadenceOn(rootLp_, engine_.now() + config_.interval,
                            [this] { onTick(); });
}

void StatusWriter::onTick() {
  // Ticks run on the root LP; the render is deferred to the next cut so the
  // registry is quiescent when snapshotted. Multiple ticks before one cut
  // (possible when the cadence outpaces the cut rate) collapse into one
  // render — the document describes "now", not each tick.
  if (!renderPending_) {
    renderPending_ = true;
    engine_.atNextCut([this](sim::Time now) {
      renderPending_ = false;
      render(now);
    });
  }
  engine_.scheduleCadenceOn(rootLp_, engine_.now() + config_.interval,
                            [this] { onTick(); });
}

void StatusWriter::render(sim::Time now) {
  lastStatus_ = tool_.statusJson(now);
  lastProm_ = tool_.prometheusText(now);
  ++rewrites_;
  if (config_.path.empty()) return;
  const bool status = replaceFile(config_.path, lastStatus_);
  const bool prom = replaceFile(config_.path + ".prom", lastProm_);
  written_ = status && prom;
}

void StatusWriter::writeFinal() { render(engine_.now()); }

}  // namespace wst::must
