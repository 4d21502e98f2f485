// Multi-session serving (DESIGN.md §17): N independent scenarios
// co-scheduled over a shared pool must each produce a result byte-identical
// to running the session alone — same verdict, metrics JSON, DOT, trace
// hash — for any thread count, any slice size, any session cap, and with
// evictions of co-tenants happening mid-campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/scenario.hpp"
#include "must/serve.hpp"
#include "support/strings.hpp"
#include "wfg/report.hpp"

namespace wst::must {
namespace {

// The `wst serve` session builder: the fuzz oracle's zero-overhead tool
// configuration around a generated scenario.
SessionSpec makeSpec(std::int32_t index, std::uint64_t seed) {
  return fuzz::sessionSpec(
      support::format("s%03d-%016llx", index,
                      static_cast<unsigned long long>(seed)),
      std::make_shared<const fuzz::Scenario>(fuzz::makeScenario(seed)));
}

std::vector<SessionSpec> eightSessions() {
  std::vector<SessionSpec> specs;
  for (std::int32_t i = 0; i < 8; ++i) {
    specs.push_back(makeSpec(i, static_cast<std::uint64_t>(i + 1)));
  }
  return specs;
}

void expectSameResult(const SessionResult& a, const SessionResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.name, b.name) << context;
  EXPECT_EQ(a.completed, b.completed) << context;
  EXPECT_EQ(a.evicted, b.evicted) << context;
  EXPECT_EQ(a.deadlock, b.deadlock) << context;
  EXPECT_EQ(a.detections, b.detections) << context;
  EXPECT_EQ(a.completionTime, b.completionTime) << context;
  EXPECT_EQ(a.traceHash, b.traceHash) << context;
  EXPECT_EQ(a.eventsExecuted, b.eventsExecuted) << context;
  EXPECT_EQ(a.metricsJson, b.metricsJson) << context;
  EXPECT_EQ(a.dot, b.dot) << context;
  EXPECT_EQ(a.summary, b.summary) << context;
}

TEST(Serve, EightSessionsMatchSoloRunsByteForByte) {
  const auto specs = eightSessions();
  ServeServer::Config cfg;
  cfg.threads = 1;
  cfg.sliceEvents = 64;  // force many scheduling rounds per session
  ServeServer server(cfg);
  for (const SessionSpec& spec : specs) server.submit(spec);
  server.run();

  ASSERT_EQ(server.results().size(), specs.size());
  bool sawDeadlock = false;
  bool sawClean = false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SessionResult solo = runSessionSolo(specs[i]);
    expectSameResult(server.results()[i], solo, "session " + specs[i].name);
    EXPECT_TRUE(server.results()[i].completed);
    (server.results()[i].deadlock ? sawDeadlock : sawClean) = true;
  }
  // The seed mix must actually cover both verdicts, or the parity check
  // proves less than it claims.
  EXPECT_TRUE(sawDeadlock);
  EXPECT_TRUE(sawClean);
  EXPECT_EQ(server.admitted(), specs.size());
  EXPECT_EQ(server.completed(), specs.size());
  EXPECT_EQ(server.evicted(), 0u);
  EXPECT_GT(server.roundsRun(), 1u);
}

std::vector<SessionResult> serveAll(const std::vector<SessionSpec>& specs,
                                    std::int32_t threads, std::int32_t cap,
                                    std::uint64_t slice) {
  ServeServer::Config cfg;
  cfg.threads = threads;
  cfg.sessionCap = cap;
  cfg.sliceEvents = slice;
  ServeServer server(cfg);
  for (const SessionSpec& spec : specs) server.submit(spec);
  server.run();
  return server.results();
}

TEST(Serve, ResultsAreThreadCountAndCapInvariant) {
  // Each mix runs at its base (threads, cap) and at the variants below. A
  // session's scheduling rounds (its slice count) follow from its own
  // events and the slice size alone, so they match too.
  struct Mix {
    std::vector<SessionSpec> specs;
    std::int32_t baseCap = 0;
    std::uint64_t slice = 0;
    std::vector<std::pair<std::int32_t, std::int32_t>> variants;
  };
  std::vector<SessionSpec> wide;  // the `wst serve` shape: all concurrent
  for (std::int32_t i = 0; i < 64; ++i) {
    wide.push_back(makeSpec(i, static_cast<std::uint64_t>(i + 1)));
  }
  const std::vector<Mix> mixes{
      {eightSessions(), 8, 64, {{4, 8}, {1, 3}, {4, 3}, {2, 1}}},
      {wide, 64, 256, {{2, 64}, {4, 64}}},
  };
  for (const Mix& mix : mixes) {
    const auto base = serveAll(mix.specs, 1, mix.baseCap, mix.slice);
    for (const auto& [threads, cap] : mix.variants) {
      const auto other = serveAll(mix.specs, threads, cap, mix.slice);
      ASSERT_EQ(other.size(), base.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        const std::string context = support::format(
            "sessions=%zu threads=%d cap=%d session %zu", mix.specs.size(),
            threads, cap, i);
        expectSameResult(base[i], other[i], context);
        EXPECT_EQ(base[i].rounds, other[i].rounds) << context;
      }
    }
  }
}

TEST(Serve, CompletingRunsReportNoDeadlockFromAnyRound) {
  // In each of these runs a periodic round once reported a deadlock and the
  // run then completed: a recvActiveAck was still in flight at the
  // consistent cut. The consistent-state pings now flush it.
  const std::string clean = wfg::summaryLine(wfg::CheckResult{});
  for (const std::uint64_t seed : {32024u, 105886u, 152183u}) {
    const SessionResult r = runSessionSolo(makeSpec(0, seed));
    EXPECT_TRUE(r.completed) << seed;
    EXPECT_EQ(r.summary, clean) << seed;
    EXPECT_FALSE(r.deadlock) << seed;
  }
}

TEST(Serve, EvictingOneSessionLeavesTheOthersUntouched) {
  const auto specs = eightSessions();
  const auto runWithEviction = [&](std::int32_t threads) {
    ServeServer::Config cfg;
    cfg.threads = threads;
    cfg.sliceEvents = 64;
    ServeServer server(cfg);
    for (const SessionSpec& spec : specs) server.submit(spec);
    server.evictAfterRounds(specs[2].name, 2);
    server.run();
    return server.results();
  };

  const auto results = runWithEviction(1);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i == 2) {
      EXPECT_TRUE(results[i].evicted);
      EXPECT_FALSE(results[i].completed);
      EXPECT_EQ(results[i].rounds, 2u);
      continue;
    }
    const SessionResult solo = runSessionSolo(specs[i]);
    expectSameResult(results[i], solo, "survivor " + specs[i].name);
  }

  // The evicted campaign is itself deterministic across thread counts.
  const auto threaded = runWithEviction(4);
  ASSERT_EQ(threaded.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    expectSameResult(results[i], threaded[i],
                     "eviction thread-invariance session " +
                         std::to_string(i));
  }
}

TEST(Serve, DuplicateNamesKeepCompletionOrderAtTheirFirstSubmission) {
  // Results come back ranked by the first submission of their name. The
  // longest and the shortest session share a name, the longest submitted
  // first: both take that name's first slot, in completion order, so the
  // shorter one comes first.
  const auto specs = eightSessions();
  std::vector<std::uint64_t> events;
  for (const SessionSpec& spec : specs) {
    events.push_back(runSessionSolo(spec).eventsExecuted);
  }
  const auto shortest = static_cast<std::size_t>(
      std::min_element(events.begin(), events.end()) - events.begin());
  const auto longest = static_cast<std::size_t>(
      std::max_element(events.begin(), events.end()) - events.begin());
  std::vector<std::size_t> others;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i != shortest && i != longest) others.push_back(i);
  }
  ServeServer::Config cfg;
  cfg.sessionCap = 4;
  cfg.sliceEvents = 64;
  ASSERT_GT(events[longest], events[shortest] + cfg.sliceEvents);
  SessionSpec longDup = specs[longest];
  SessionSpec shortDup = specs[shortest];
  longDup.name = shortDup.name = "dup";

  const std::vector<SessionSpec> submitted{longDup, specs[others[0]],
                                           shortDup, specs[others[1]]};

  ServeServer server(cfg);
  for (const SessionSpec& spec : submitted) server.submit(spec);
  server.run();
  const auto& results = server.results();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_LT(results[0].rounds, results[1].rounds);
  expectSameResult(results[0], runSessionSolo(shortDup), "short dup");
  expectSameResult(results[1], runSessionSolo(longDup), "long dup");
  expectSameResult(results[2], runSessionSolo(submitted[1]), "second name");
  expectSameResult(results[3], runSessionSolo(submitted[3]), "third name");
}

TEST(Serve, StatusJsonCarriesSessionsTableAndCounters) {
  auto specs = eightSessions();
  specs.back().name = "a\"b\\c";  // must come out JSON-escaped
  ServeServer::Config cfg;
  cfg.threads = 2;
  cfg.sessionCap = 4;
  ServeServer server(cfg);
  for (const SessionSpec& spec : specs) server.submit(spec);
  server.run();
  const std::string json = server.statusJson();
  EXPECT_NE(json.find("\"schema\": \"wst-serve-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"sessions\": ["), std::string::npos);
  for (std::size_t i = 0; i + 1 < specs.size(); ++i) {
    EXPECT_NE(json.find(specs[i].name), std::string::npos) << specs[i].name;
  }
  EXPECT_NE(json.find("{\"name\": \"a\\\"b\\\\c\", \"state\": \"completed\""),
            std::string::npos);
  EXPECT_NE(json.find("\"admitted\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"completed\": 8"), std::string::npos);
  EXPECT_EQ(server.deadlocks(),
            static_cast<std::uint64_t>(
                std::count_if(server.results().begin(),
                              server.results().end(),
                              [](const SessionResult& r) {
                                return r.deadlock;
                              })));
}

}  // namespace
}  // namespace wst::must
