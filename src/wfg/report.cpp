#include "wfg/report.hpp"

#include "support/strings.hpp"

namespace wst::wfg {

std::string summaryLine(const CheckResult& check) {
  if (!check.deadlock) return "No deadlock detected.";
  std::string out = "DEADLOCK: ";
  support::appendInt(out, check.deadlocked.size());
  out += " process(es) cannot continue";
  if (!check.cycle.empty()) {
    out += ", representative cycle ";
    for (const auto proc : check.cycle) {
      support::appendInt(out, proc);
      out += " -> ";
    }
    support::appendInt(out, check.cycle.front());
  }
  return out;
}

Report makeReport(const WaitForGraph& graph, const CheckResult& check,
                  const std::function<void(std::string_view)>& dotSink) {
  Report report;
  report.check = check;
  report.deadlock = check.deadlock;
  report.summary = summaryLine(check);

  // DOT graph of the deadlocked processes (paper: "a wait-for graph of the
  // deadlocked processes in DOT").
  if (check.deadlock) {
    if (dotSink) {
      report.dotBytes = graph.writeDot(dotSink, check.deadlocked);
    } else {
      report.dotBytes =
          graph.writeDot([](std::string_view) {}, check.deadlocked);
    }
  }

  // HTML report. For very large deadlocks only a bounded number of processes
  // is detailed (a p^2-arc graph is not human readable anyway — paper §6).
  std::string& html = report.html;
  html += "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">";
  html += "<title>MUST-style deadlock report</title></head><body>\n";
  html += "<h1>";
  support::appendHtmlEscaped(html, report.summary);
  html += "</h1>\n";
  if (check.deadlock) {
    html += "<p>Wait-for graph: ";
    support::appendWithCommas(html, check.arcCount);
    html += " arcs across ";
    support::appendInt(html, graph.procCount());
    html += " processes.</p>\n";
    html += "<table border=\"1\"><tr><th>Process</th><th>Active call</th>"
            "<th>Wait-for conditions</th></tr>\n";
    constexpr std::size_t kMaxDetailed = 64;
    std::size_t shown = 0;
    for (const auto proc : check.deadlocked) {
      if (shown++ == kMaxDetailed) {
        html += "<tr><td colspan=\"3\">... and ";
        support::appendInt(html, check.deadlocked.size() - kMaxDetailed);
        html += " further processes</td></tr>\n";
        break;
      }
      const NodeConditions& node = graph.node(proc);
      html += "<tr><td>";
      support::appendInt(html, proc);
      html += "</td><td>";
      support::appendHtmlEscaped(html, node.description);
      html += "</td><td>";
      for (std::size_t c = 0; c < node.clauses.size(); ++c) {
        const Clause& clause = node.clauses[c];
        if (c != 0) html += " AND ";
        if (clause.reason.empty()) {
          support::appendInt(html, clause.targets.size());
          html += " dependencies";
        } else {
          support::appendHtmlEscaped(html, clause.reason);
        }
      }
      html += "</td></tr>\n";
    }
    html += "</table>\n";
  } else {
    html += "<p>All processes can continue.</p>\n";
  }
  html += "</body></html>\n";
  return report;
}

void appendWaitHistory(
    Report& report, const std::vector<support::ProcBlockedProfile>& history) {
  if (history.empty()) return;
  constexpr std::string_view kTail = "</body></html>\n";
  std::string& html = report.html;
  if (html.size() >= kTail.size() &&
      std::string_view(html).substr(html.size() - kTail.size()) == kTail) {
    html.resize(html.size() - kTail.size());
  }

  html += "<h2>Wait history (flight recorder)</h2>\n";
  html += "<p>Blocked-time attribution per deadlocked process, in virtual "
          "nanoseconds; open spans are charged up to the end of the "
          "recording.</p>\n";
  for (const support::ProcBlockedProfile& profile : history) {
    html += support::format(
        "<h3>Process %d &mdash; %s ns blocked</h3>\n", profile.proc,
        support::withCommas(profile.totalBlockedNs).c_str());
    html += "<table border=\"1\"><tr><th>Blocked in</th><th>ns</th></tr>\n";
    for (const auto& [kind, ns] : profile.byKind) {
      html += support::format("<tr><td>%s</td><td>%s</td></tr>\n",
                              support::htmlEscape(kind).c_str(),
                              support::withCommas(ns).c_str());
    }
    html += "</table>\n";
    html += "<table border=\"1\"><tr><th>Waiting on</th><th>ns</th></tr>\n";
    for (const auto& [peer, ns] : profile.byPeer) {
      html += support::format("<tr><td>%s</td><td>%s</td></tr>\n",
                              support::htmlEscape(peer).c_str(),
                              support::withCommas(ns).c_str());
    }
    html += "</table>\n";
    if (!profile.tail.empty()) {
      html += support::format("<p>Last %zu flight-recorder events:</p>\n<ol>\n",
                              profile.tail.size());
      for (const std::string& line : profile.tail) {
        html += support::format("<li><code>%s</code></li>\n",
                                support::htmlEscape(line).c_str());
      }
      html += "</ol>\n";
    }
  }
  html += kTail;
}

void appendHtmlSection(Report& report, std::string_view title,
                       std::string_view bodyHtml) {
  constexpr std::string_view kTail = "</body></html>\n";
  std::string& html = report.html;
  if (html.size() >= kTail.size() &&
      std::string_view(html).substr(html.size() - kTail.size()) == kTail) {
    html.resize(html.size() - kTail.size());
  }
  html += support::format("<h2>%s</h2>\n",
                          support::htmlEscape(title).c_str());
  html += bodyHtml;
  html += kTail;
}

}  // namespace wst::wfg
