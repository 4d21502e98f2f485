#include "wfg/incremental.hpp"

#include <algorithm>
#include <chrono>

#include "support/assert.hpp"

namespace wst::wfg {

namespace {

std::uint64_t wallNs(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

IncrementalWfg::IncrementalWfg(std::int32_t procCount)
    : procCount_(procCount),
      graph_(procCount),
      pristine_(static_cast<std::size_t>(procCount)),
      finished_(static_cast<std::size_t>(procCount), 0) {
  for (std::int32_t i = 0; i < procCount; ++i) {
    pristine_[static_cast<std::size_t>(i)].proc = i;
  }
}

void IncrementalWfg::stage(NodeConditions node) {
  WST_ASSERT(node.proc >= 0 && node.proc < procCount_,
             "staged node out of range");
  staged_.push_back(std::move(node));
}

IncrementalWfg::RoundResult IncrementalWfg::commit() {
  const auto buildStart = std::chrono::steady_clock::now();
  const std::size_t p = static_cast<std::size_t>(procCount_);
  RoundResult rr;
  rr.changed = static_cast<std::uint32_t>(staged_.size());
  if (first_) {
    WST_ASSERT(staged_.size() == p, "first commit must stage every process");
    first_ = false;
  }

  // Apply the delta to the pristine store and track which collective waves
  // gained or lost a member (those waves' current members need re-pruning;
  // members that *left* a wave are staged nodes themselves).
  std::vector<char> inReprune(p, 0);
  std::vector<std::uint64_t> touchedWaves;
  for (auto& node : staged_) {
    const auto i = static_cast<std::size_t>(node.proc);
    NodeConditions& old = pristine_[i];
    if (old.blocked && old.inCollective) {
      const std::uint64_t key = waveKey(old.collComm, old.collWaveIndex);
      auto& members = waveMembers_[key];
      std::erase(members, old.proc);
      if (members.empty()) waveMembers_.erase(key);  // keep the map bounded
      touchedWaves.push_back(key);
    }
    if (finished_[i] != 0) --finishedCount_;
    finished_[i] = node.finished ? 1 : 0;
    if (finished_[i] != 0) ++finishedCount_;
    pristine_[i] = std::move(node);
    if (pristine_[i].blocked && pristine_[i].inCollective) {
      const std::uint64_t key =
          waveKey(pristine_[i].collComm, pristine_[i].collWaveIndex);
      waveMembers_[key].push_back(pristine_[i].proc);
      touchedWaves.push_back(key);
    }
    inReprune[i] = 1;
  }
  staged_.clear();
  // Several staged nodes can touch the same wave (and one node touches its
  // old and new wave): dedupe so re-prune work below runs once per wave.
  std::sort(touchedWaves.begin(), touchedWaves.end());
  touchedWaves.erase(std::unique(touchedWaves.begin(), touchedWaves.end()),
                     touchedWaves.end());
  for (const std::uint64_t key : touchedWaves) {
    // find(): a wave whose last member left was erased above; operator[]
    // would silently resurrect an empty entry.
    const auto it = waveMembers_.find(key);
    if (it == waveMembers_.end()) continue;
    for (const trace::ProcId member : it->second) {
      inReprune[static_cast<std::size_t>(member)] = 1;
    }
  }

  // Install the raw conditions of every affected node first: pruning reads
  // only header fields, so once all new headers are visible, pruning each
  // affected node in place reproduces exactly what a full prune pass over
  // the new state would compute. Every other node keeps its pruned
  // conditions: neither its clauses nor the headers it prunes against
  // changed.
  for (std::size_t i = 0; i < p; ++i) {
    // A copy: pristine_ stays unpruned.
    if (inReprune[i] != 0) graph_.setNode(pristine_[i]);
  }
  for (std::size_t i = 0; i < p; ++i) {
    if (inReprune[i] == 0) continue;
    graph_.pruneNodeCollectiveClauses(static_cast<trace::ProcId>(i));
    ++rr.repruned;
  }

  const auto checkStart = std::chrono::steady_clock::now();
  rr.buildNs = wallNs(buildStart, checkStart);
  rr.check = graph_.check();
  rr.checkNs = wallNs(checkStart, std::chrono::steady_clock::now());
  return rr;
}

WaitForGraph IncrementalWfg::buildFullGraph() const {
  WaitForGraph full(procCount_);
  for (const auto& node : pristine_) full.setNode(node);
  full.pruneCollectiveCoWaiters();
  return full;
}

}  // namespace wst::wfg
