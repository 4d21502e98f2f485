// Deadlock report generation: HTML report + DOT wait-for graph (paper §5:
// "If a deadlock exists, we log it in an HTML report and output a
// notification"). The output-generation phase is part of the detection-time
// breakdown the paper measures (Figures 10(b)/11(b)), so emitters report the
// bytes they produced and can stream to a counting sink.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "support/trace_export.hpp"
#include "wfg/graph.hpp"

namespace wst::wfg {

/// Detection-time breakdown in the paper's five activity groups
/// (Figure 10(b)/11(b)). Network phases are virtual time from the simulated
/// TBON; compute phases are wall time of the real computation, both in
/// nanoseconds (see EXPERIMENTS.md for the convention).
struct DetectionTimes {
  std::uint64_t synchronizationNs = 0;  // consistent-state protocol
  std::uint64_t wfgGatherNs = 0;        // requestWaits -> all wait info
  std::uint64_t graphBuildNs = 0;       // assembling the WFG
  std::uint64_t deadlockCheckNs = 0;    // release fixpoint / graph search
  std::uint64_t outputGenerationNs = 0; // DOT + HTML emission

  std::uint64_t totalNs() const {
    return synchronizationNs + wfgGatherNs + graphBuildNs + deadlockCheckNs +
           outputGenerationNs;
  }
};

struct Report {
  bool deadlock = false;
  std::string summary;        // one-line notification
  std::string html;           // full HTML report
  std::uint64_t dotBytes = 0;  // size of the emitted DOT graph
  CheckResult check;
  DetectionTimes times;
};

/// Produce the user-facing report for a completed deadlock check.
/// `dotSink`, when provided, receives the DOT graph of the deadlocked
/// processes in streaming fashion (pass a file writer or a counting sink);
/// when null the DOT text is still generated (and counted) but discarded.
Report makeReport(const WaitForGraph& graph, const CheckResult& check,
                  const std::function<void(std::string_view)>& dotSink = {});

/// One-line human-readable summary, e.g.
/// "DEADLOCK: 3 processes, representative cycle 0 -> 1 -> 0".
std::string summaryLine(const CheckResult& check);

/// Append a per-process "wait history" section to `report.html` from the
/// flight recorder's blocked-time attribution: where each deadlocked process
/// spent its blocked time (by MPI call kind and by peer) and the last events
/// the recorder holds for it. No-op when `history` is empty (tracing off).
void appendWaitHistory(Report& report,
                       const std::vector<support::ProcBlockedProfile>& history);

/// Append a generic section (an h2 title plus prebuilt body markup) inside
/// `report.html`'s closing tags. Callers escape their own text content;
/// `bodyHtml` is inserted verbatim. Used by the telemetry plane to surface
/// dropped trace events, overlay fault totals, and the fleet health table.
void appendHtmlSection(Report& report, std::string_view title,
                       std::string_view bodyHtml);

}  // namespace wst::wfg
