// Regression suite for the protocol fuzzer: replays the committed scenario
// corpus through both oracles, proves the planted tracker bug is caught and
// shrunk to a tiny witness, and pins down the determinism guarantees the
// `wst fuzz` CLI advertises (same seed => same scenario bytes, same fault
// schedule, same verdict — regardless of worker thread count).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/scenario.hpp"
#include "fuzz/shrinker.hpp"

#ifndef WST_FUZZ_CORPUS_DIR
#error "build must define WST_FUZZ_CORPUS_DIR"
#endif

namespace wst::fuzz {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpusFiles() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(WST_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".wst") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

Scenario load(const fs::path& file) {
  std::ifstream in(file);
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const auto scenario = Scenario::parse(text.str(), &error);
  EXPECT_TRUE(scenario.has_value()) << file << ": " << error;
  return *scenario;
}

TEST(FuzzRegression, CorpusIsCommittedAndParses) {
  const auto files = corpusFiles();
  ASSERT_GE(files.size(), 10u) << "corpus shrank below the regression floor";
  for (const auto& file : files) {
    const Scenario scenario = load(file);
    EXPECT_GT(scenario.totalOps(), 0) << file;
    EXPECT_LE(scenario.totalOps(), 60) << file;
    // Round-trip: the committed bytes are exactly what serialize() emits.
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(scenario.serialize(), text.str()) << file;
  }
}

TEST(FuzzRegression, ParseRejectsOutOfRangeTimes) {
  // Every virtual-time field of every corpus file, rewritten in turn to a
  // negative or oversized value, must fail to parse with a diagnostic that
  // names the field — never wrap into a huge unsigned time that aborts the
  // replay. Each entry: line keyword, token index, field name in the error.
  struct TimeField {
    const char* keyword;
    std::size_t token;
    const char* name;
  };
  const TimeField fields[] = {
      {"periodic", 1, "periodic"},
      {"detection_jitter", 1, "detection_jitter"},
      {"latency", 1, "latency"},
      {"latency", 2, "latency"},
      {"latency", 3, "latency"},
      {"faults", 8, "maxdelay"},
      {"faults", 10, "jitter"},
      {"crash", 2, "crash time"},
  };
  const char* const badValues[] = {"-5", "-1", "1000000000001",
                                   "9223372036854775000"};
  std::size_t rewrites = 0;
  for (const auto& file : corpusFiles()) {
    std::ifstream in(file);
    std::vector<std::vector<std::string>> lines;
    for (std::string line; std::getline(in, line);) {
      std::istringstream words(line);
      lines.emplace_back();
      for (std::string w; words >> w;) lines.back().push_back(w);
    }
    for (const TimeField& field : fields) {
      for (auto& line : lines) {
        if (line.empty() || line[0] != field.keyword) continue;
        ASSERT_LT(field.token, line.size()) << file << " " << field.keyword;
        const std::string original = line[field.token];
        for (const char* bad : badValues) {
          line[field.token] = bad;
          std::string text;
          for (const auto& words : lines) {
            for (std::size_t i = 0; i < words.size(); ++i) {
              text += (i > 0 ? " " : "") + words[i];
            }
            text += "\n";
          }
          std::string error;
          EXPECT_FALSE(Scenario::parse(text, &error).has_value())
              << file << ": " << field.keyword << " = " << bad;
          EXPECT_NE(error.find(field.name), std::string::npos)
              << file << ": " << bad << " gave '" << error << "'";
          ++rewrites;
        }
        line[field.token] = original;
      }
    }
  }
  // Every file has the seven non-crash fields; crash files add one more.
  EXPECT_GE(rewrites, corpusFiles().size() * 7 * std::size(badValues));
}

TEST(FuzzRegression, CorpusReplaysWithoutDivergence) {
  for (const auto& file : corpusFiles()) {
    const Scenario scenario = load(file);
    const Outcome formal = runFormalOracle(scenario);
    RunOptions options;
    options.faults = scenario.faults.any();
    const Outcome distributed = runDistributedOracle(scenario, options);
    EXPECT_EQ(compareOutcomes(formal, distributed), "") << file;
  }
}

TEST(FuzzRegression, CorpusReplaysWithoutDivergenceUnderThreads) {
  for (const auto& file : corpusFiles()) {
    const Scenario scenario = load(file);
    const Outcome formal = runFormalOracle(scenario);
    RunOptions options;
    options.faults = scenario.faults.any();
    options.threads = 4;
    const Outcome distributed = runDistributedOracle(scenario, options);
    EXPECT_EQ(compareOutcomes(formal, distributed), "") << file;
  }
}

TEST(FuzzRegression, CorpusReplaysWithoutDivergenceUnderHierarchicalCheck) {
  // The hierarchical in-tree check (with its in-tool differential guard
  // against the raw root check) must agree with the formal oracle on the
  // whole committed corpus — including the fault-injected scenarios, where
  // both in-tool paths see the same (possibly degraded) tracker state.
  for (const auto& file : corpusFiles()) {
    const Scenario scenario = load(file);
    const Outcome formal = runFormalOracle(scenario);
    RunOptions options;
    options.faults = scenario.faults.any();
    options.hierarchical = true;
    const Outcome distributed = runDistributedOracle(scenario, options);
    EXPECT_EQ(compareOutcomes(formal, distributed), "") << file;
    EXPECT_EQ(distributed.divergences, 0u) << file;
  }
}

TEST(FuzzRegression, CorpusReplaysWithoutDivergenceUnderHybrid) {
  // Hybrid sampling mode: each scenario is certified statically and the
  // distributed run suppresses tracking inside the certified prefix. The
  // whole corpus — wildcards, comm splits, faults, deadlocks — must still
  // agree with the formal oracle on verdict, terminal state and WFG.
  for (const auto& file : corpusFiles()) {
    const Scenario scenario = load(file);
    const Outcome formal = runFormalOracle(scenario);
    RunOptions options;
    options.faults = scenario.faults.any();
    options.hybrid = true;
    const Outcome distributed = runDistributedOracle(scenario, options);
    EXPECT_EQ(compareOutcomes(formal, distributed), "") << file;
  }
}

TEST(FuzzRegression, CorpusReplaysWithoutDivergenceUnderHybridThreads) {
  for (const auto& file : corpusFiles()) {
    const Scenario scenario = load(file);
    const Outcome formal = runFormalOracle(scenario);
    RunOptions options;
    options.faults = scenario.faults.any();
    options.hybrid = true;
    options.threads = 4;
    const Outcome distributed = runDistributedOracle(scenario, options);
    EXPECT_EQ(compareOutcomes(formal, distributed), "") << file;
  }
}

TEST(FuzzRegression, PlantedBugIsCaughtAndShrinksToATinyWitness) {
  // --inject-bug 1 drops the tracker's recvActiveAck responses for probes;
  // the differential oracle must notice, and the shrinker must reduce the
  // witness to a handful of operations.
  RunOptions options;
  options.faults = false;
  options.injectBug = 1;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Scenario scenario = makeScenario(seed);
    const Outcome formal = runFormalOracle(scenario);
    const Outcome buggy = runDistributedOracle(scenario, options);
    if (compareOutcomes(formal, buggy).empty()) continue;

    const ShrinkResult shrunk = shrink(scenario, options, /*budget=*/300);
    EXPECT_LE(shrunk.scenario.totalOps(), 8)
        << "shrinker left a large witness for seed " << seed;
    // The shrunk scenario still reproduces the divergence.
    const Outcome formal2 = runFormalOracle(shrunk.scenario);
    const Outcome buggy2 = runDistributedOracle(shrunk.scenario, options);
    EXPECT_NE(compareOutcomes(formal2, buggy2), "");
    // And a healthy tracker agrees on it: the witness blames the bug, not
    // the scenario.
    RunOptions healthy = options;
    healthy.injectBug = 0;
    const Outcome fixed = runDistributedOracle(shrunk.scenario, healthy);
    EXPECT_EQ(compareOutcomes(formal2, fixed), "");
    return;
  }
  FAIL() << "planted bug never diverged in 40 scenarios";
}

TEST(FuzzRegression, CrashPlanRoundTripsByteExact) {
  // The crash grammar line (`crash <nodeIndex> <at>`) must survive a full
  // serialize -> parse -> serialize cycle byte-exactly, and scenarios
  // without a crash plan must keep the pre-crash wire format so the old
  // committed corpus stays byte-stable.
  GenOptions gen;
  gen.allowCrash = true;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Scenario crash = makeScenario(seed, gen);
    ASSERT_TRUE(crash.crash.enabled) << "seed " << seed;
    const std::string bytes = crash.serialize();
    EXPECT_NE(bytes.find("\ncrash "), std::string::npos) << "seed " << seed;
    std::string error;
    const auto reparsed = Scenario::parse(bytes, &error);
    ASSERT_TRUE(reparsed.has_value()) << error;
    EXPECT_EQ(*reparsed, crash);
    EXPECT_EQ(reparsed->serialize(), bytes);

    const Scenario plain = makeScenario(seed);
    EXPECT_FALSE(plain.crash.enabled);
    EXPECT_EQ(plain.serialize().find("\ncrash "), std::string::npos);
  }
}

TEST(FuzzRegression, CrashCorpusIsCommittedAndReplays) {
  // The committed corpus must include shrunk crash-recovery witnesses, and
  // each must replay divergence-free against a healthy tool (the recovery
  // protocol heals the torn subtree) at one and at four engine threads.
  std::size_t crashFiles = 0;
  for (const auto& file : corpusFiles()) {
    const Scenario scenario = load(file);
    if (!scenario.crash.enabled) continue;
    ++crashFiles;
    const Outcome formal = runFormalOracle(scenario);
    for (const std::int32_t threads : {1, 4}) {
      RunOptions options;
      options.faults = scenario.faults.any();
      options.threads = threads;
      const Outcome distributed = runDistributedOracle(scenario, options);
      EXPECT_EQ(compareOutcomes(formal, distributed), "")
          << file << " threads=" << threads;
    }
  }
  EXPECT_GE(crashFiles, 4u) << "crash corpus shrank below the floor";
}

TEST(FuzzRegression, PlantedRecoveryBugIsCaughtAndShrinksToATinyWitness) {
  // --inject-bug 2 skips the re-parented nodes' replay of unacknowledged
  // collective contributions, so state held in the crashed node is lost
  // for good. The loss window is widest when fault-injected retransmit
  // delays stretch the in-flight phase, so the sweep runs with each
  // scenario's fault plan armed. The differential oracle must notice, and
  // the shrinker must reduce the witness to a handful of operations while
  // keeping the crash plan (dropping it would stop reproducing).
  RunOptions options;
  options.injectBug = 2;
  GenOptions gen;
  gen.allowCrash = true;
  std::size_t divergent = 0;
  std::size_t bestOps = 0;
  for (std::uint64_t seed = 1; seed <= 40 && divergent < 3; ++seed) {
    const Scenario scenario = makeScenario(seed, gen);
    options.faults = scenario.faults.any();
    const Outcome formal = runFormalOracle(scenario);
    const Outcome buggy = runDistributedOracle(scenario, options);
    if (compareOutcomes(formal, buggy).empty()) continue;
    ++divergent;

    const ShrinkResult shrunk = shrink(scenario, options, /*budget=*/400);
    EXPECT_LT(shrunk.scenario.totalOps(), scenario.totalOps())
        << "shrinker made no progress on seed " << seed;
    EXPECT_TRUE(shrunk.scenario.crash.enabled)
        << "a recovery-bug witness cannot lose its crash plan";
    const Outcome formal2 = runFormalOracle(shrunk.scenario);
    const Outcome buggy2 = runDistributedOracle(shrunk.scenario, options);
    EXPECT_NE(compareOutcomes(formal2, buggy2), "");
    // A healthy tool agrees on the witness: the bug is in the skipped
    // replay, not in the scenario.
    RunOptions healthy = options;
    healthy.injectBug = 0;
    const Outcome fixed = runDistributedOracle(shrunk.scenario, healthy);
    EXPECT_EQ(compareOutcomes(formal2, fixed), "");
    if (bestOps == 0 || shrunk.scenario.totalOps() < bestOps) {
      bestOps = shrunk.scenario.totalOps();
    }
  }
  ASSERT_GT(divergent, 0u)
      << "planted recovery bug never diverged in 40 crash scenarios";
  // At least one witness in the sweep must minimize to a handful of ops
  // (the committed corpus-crash-* files were produced exactly this way).
  EXPECT_LE(bestOps, 8u) << "no witness shrank below 8 ops";
}

TEST(FuzzRegression, SameSeedYieldsByteIdenticalScenarios) {
  for (std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
    const Scenario a = makeScenario(seed);
    const Scenario b = makeScenario(seed);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.serialize(), b.serialize());
  }
  // Distinct seeds explore distinct programs.
  EXPECT_NE(makeScenario(1).serialize(), makeScenario(2).serialize());
}

TEST(FuzzRegression, VerdictAndFaultScheduleAreThreadCountInvariant) {
  // Pick a corpus scenario that actually exercises the fault layer.
  Scenario scenario;
  bool found = false;
  for (const auto& file : corpusFiles()) {
    scenario = load(file);
    if (scenario.faults.any()) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "corpus has no faulted scenario";

  RunOptions single;
  single.faults = true;
  const Outcome base = runDistributedOracle(scenario, single);
  for (int threads : {2, 4}) {
    RunOptions opt = single;
    opt.threads = threads;
    const Outcome out = runDistributedOracle(scenario, opt);
    EXPECT_EQ(compareOutcomes(base, out), "") << "threads=" << threads;
    // The fault schedule itself is sharded per sending node, so its
    // decision counts cannot depend on the worker count.
    EXPECT_EQ(out.faultStats.dropsInjected, base.faultStats.dropsInjected);
    EXPECT_EQ(out.faultStats.dupsInjected, base.faultStats.dupsInjected);
    EXPECT_EQ(out.faultStats.delaysInjected, base.faultStats.delaysInjected);
  }
}

TEST(FuzzRegression, RepeatedRunsAreFullyDeterministic) {
  const Scenario scenario = makeScenario(0xABCDEFULL);
  RunOptions options;
  options.faults = true;
  const Outcome a = runDistributedOracle(scenario, options);
  const Outcome b = runDistributedOracle(scenario, options);
  EXPECT_EQ(compareOutcomes(a, b), "");
  EXPECT_EQ(a.traceHash, b.traceHash);
  EXPECT_EQ(a.wfg, b.wfg);
}

}  // namespace
}  // namespace wst::fuzz
