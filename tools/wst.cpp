// wst — command-line driver for the reproduction.
//
// Runs a named workload on the simulated MPI runtime with the deadlock
// detection tool attached and reports the verdict, overheads, and (on
// request) the DOT/HTML artifacts.
//
//   wst list
//   wst run --workload wildcard --procs 64 --fanin 4 --dot /tmp/wfg.dot
//   wst run --workload 126.lammps --procs 256 --centralized
//   wst run --workload figure2b --no-buffer
//   wst run --workload figure4 --rooted-collectives
//   wst fuzz --runs 500 --seed 7 --out-dir /tmp/fuzz
//   wst fuzz --replay /tmp/fuzz/fuzz-0000000000000007-12.wst
//   wst serve --sessions 16 --threads 4 --status-out /tmp/serve.json
//
// Exit code: 0 = clean run, 2 = deadlock reported, 1 = usage error,
// 3 = divergence found by run --verify, serve --verify or the fuzz oracle.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/certificate.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"

#include "must/harness.hpp"
#include "must/serve.hpp"
#include "must/hybrid.hpp"
#include "must/telemetry.hpp"
#include "support/strings.hpp"
#include "support/trace_export.hpp"
#include "support/tracing.hpp"
#include "wfg/compress.hpp"
#include "workloads/spec.hpp"
#include "workloads/stress.hpp"

using namespace wst;

namespace {

struct Options {
  std::string workload = "stress";
  std::int32_t procs = 16;
  std::int32_t fanIn = 4;
  bool centralized = false;
  bool faithful = false;
  bool noBuffer = false;
  bool rootedCollectives = false;
  bool prioritize = false;
  bool batch = false;  // coalesce wait-state messages on intralayer/up links
  bool compare = false;  // also run an untooled reference and print slowdown
  std::int32_t iterations = 50;
  std::int32_t distance = 1;  // stress neighbour distance (ring stride)
  std::int32_t active = 0;    // stress active ranks (0 = all)
  std::int32_t threads = 1;   // engine worker threads
  bool engineStats = false;   // print engine round statistics
  sim::Duration periodic = 0;
  bool noIncremental = false;  // full wait-info gather every round
  bool hierarchicalCheck = false;  // in-tree condensed check replaces gather
  bool hybrid = false;         // static certificate + sampled tracking
  bool verify = false;  // check each round (and --hybrid) against a reference
  std::string dotPath;
  std::string compressedDotPath;
  std::string htmlPath;
  std::string metricsPath;  // dump the tool metrics registry as JSON
  std::string traceOut;     // Chrome trace-event JSON of the flight recorder
  std::int32_t traceDepth = 4096;  // ring capacity per trace track

  // Live telemetry plane (DESIGN.md §16).
  bool telemetry = false;      // per-round timeline + overhead accounting
  bool top = false;            // `wst top`: render the timeline post-run
  std::string statusOut;       // status JSON path (+ .prom sibling)
  sim::Duration statusInterval = 5'000'000;  // virtual ns between rewrites
  sim::Duration beatInterval = 0;            // TBON health beats (0 = off)
  std::string timelineOut;     // timeline JSON (wst-timeline-v1) path
  std::int32_t muteNode = -1;  // test hook: node that never sends beats
};

void printUsage() {
  std::puts(
      "usage: wst <command> [options]\n"
      "\n"
      "commands:\n"
      "  list                     list available workloads\n"
      "  run                      run a workload under the tool\n"
      "  top                      run with telemetry and render the\n"
      "                           per-round metric timeline (accepts all\n"
      "                           run options)\n"
      "  fuzz                     differential protocol fuzzing (see below)\n"
      "  serve                    multiplex N independent scenarios as\n"
      "                           co-scheduled sessions over a shared\n"
      "                           thread pool (see below)\n"
      "\n"
      "run options:\n"
      "  --workload NAME          workload or SPEC proxy name (default: stress)\n"
      "  --procs N                number of simulated ranks (default: 16)\n"
      "  --fanin F                TBON fan-in, at least 2 (default: 4)\n"
      "  --centralized            use the centralized baseline architecture\n"
      "  --iterations N           workload iterations (default: 50)\n"
      "  --distance D             stress exchange ring distance (default: 1;\n"
      "                           set to the fan-in to cross node boundaries)\n"
      "  --active N               stress: only the first N ranks exchange;\n"
      "                           the rest block on a completion token\n"
      "                           (stable wait states for delta gathers)\n"
      "  --faithful               implementation-faithful blocking model\n"
      "  --no-buffer              MPI does not buffer standard sends\n"
      "  --rooted-collectives     rooted collectives do not synchronize\n"
      "  --prioritize             prefer wait-state messages (smaller windows)\n"
      "  --batch                  coalesce wait-state messages per link\n"
      "  --threads N              engine worker threads (default 1).\n"
      "                           Results are identical for any N\n"
      "  --engine-stats           print engine round statistics\n"
      "  --periodic-ms X          periodic detection every X virtual ms\n"
      "  --no-incremental         full wait-info gather every round, so the\n"
      "                           root re-prunes every process (the delta\n"
      "                           gather is the default)\n"
      "  --hierarchical-check     run the deadlock check inside the tree:\n"
      "                           subtrees resolve local fates and forward\n"
      "                           boundary condensations; the root checks\n"
      "                           boundary nodes only (replaces the raw\n"
      "                           wait-info gather)\n"
      "  --hybrid                 certify the workload's deterministic phases\n"
      "                           with the static classifier (one tool-free\n"
      "                           profiling run) and sample instead of track\n"
      "                           inside the certified prefix\n"
      "  --verify                 check every detection round against its\n"
      "                           reference: a full rebuild of the root's\n"
      "                           graph next to the maintained one, and with\n"
      "                           --hierarchical-check the raw root check\n"
      "                           next to the condensed one; with --hybrid\n"
      "                           also rerun without the certificate and\n"
      "                           compare the two outcomes. Exit 3 on any\n"
      "                           divergence\n"
      "  --compare                also run an untooled reference (slowdown)\n"
      "  --dot PATH               write the deadlock wait-for graph as DOT\n"
      "  --compressed-dot PATH    write the class-compressed DOT\n"
      "  --html PATH              write the HTML report\n"
      "  --metrics PATH           write the tool metrics registry as JSON\n"
      "  --trace-out PATH         record a protocol trace and write it as\n"
      "                           Chrome trace-event JSON (load in Perfetto\n"
      "                           or chrome://tracing)\n"
      "  --trace-depth N          flight-recorder ring capacity per track\n"
      "                           (default: 4096 events, at least 16;\n"
      "                           oldest drop first)\n"
      "  --telemetry              per-round metric timeline + overhead\n"
      "                           self-accounting (implied by the flags\n"
      "                           below and by `wst top`)\n"
      "  --status-out PATH        rewrite a live status JSON document at\n"
      "                           PATH (and Prometheus text at PATH.prom)\n"
      "                           on a virtual-time cadence; byte-identical\n"
      "                           for any --threads N\n"
      "  --status-interval-ms X   status rewrite cadence in virtual ms\n"
      "                           (default: 5)\n"
      "  --beat-interval-ms X     TBON health beats every X virtual ms:\n"
      "                           nodes report queue/retransmit/epoch state\n"
      "                           up the tree; the root flags stale nodes\n"
      "                           (default: off)\n"
      "  --timeline-out PATH      write the per-round metric timeline as\n"
      "                           JSON (schema wst-timeline-v1) after the\n"
      "                           run\n"
      "  --mute-node N            test hook: tool node N never sends health\n"
      "                           beats (exercises staleness detection)\n"
      "\n"
      "fuzz options:\n"
      "  --runs N                 scenarios to generate and check (default 100)\n"
      "  --seed S                 campaign seed; same seed + options =>\n"
      "                           byte-identical scenarios and verdicts\n"
      "  --threads N              engine worker threads of the distributed\n"
      "                           runs (default 1)\n"
      "  --batch                  enable wait-state batching in the tool\n"
      "  --hierarchical           run every distributed check with the\n"
      "                           hierarchical in-tree path; the in-tool\n"
      "                           verifier of every fuzz run checks it\n"
      "                           against the raw root check\n"
      "  --hybrid                 certify each scenario statically and run\n"
      "                           the distributed side in hybrid sampling\n"
      "                           mode (verdicts must not change)\n"
      "  --no-faults              skip the fault-injected variant of each run\n"
      "  --fault-kinds KINDS      extra fault kinds; 'crash' generates\n"
      "                           scenarios that crash-stop a random inner\n"
      "                           tool node at a random virtual time (the\n"
      "                           recovery protocol must keep verdicts\n"
      "                           identical to the formal oracle)\n"
      "  --inject-bug K           plant tool bug K (test hook; 1 = drop probe\n"
      "                           acks) so the oracle must catch it\n"
      "  --out-dir DIR            where divergence artifacts go (default .)\n"
      "  --budget-sec X           stop starting new runs after X wall seconds\n"
      "  --no-shrink              keep divergent scenarios unminimized\n"
      "  --shrink-budget N        max oracle evaluations per shrink (default\n"
      "                           400)\n"
      "  --emit-corpus DIR        save structurally diverse scenarios to DIR\n"
      "  --replay FILE            differential-check one .wst scenario file\n"
      "  --print-scenario S       print the generated scenario for seed S\n"
      "\n"
      "  fuzz exit code: 0 = all oracles agree, 3 = divergence found\n"
      "\n"
      "serve options:\n"
      "  --sessions N             sessions to build and serve (default 8);\n"
      "                           session i runs the fuzz scenario for seed\n"
      "                           BASE+i with its own virtual clock and\n"
      "                           isolated metrics/trace namespaces\n"
      "  --seed S                 base scenario seed (default 1)\n"
      "  --threads N              scheduler worker threads (default 1);\n"
      "                           results are byte-identical for any N\n"
      "  --session-cap N          max concurrently admitted sessions\n"
      "                           (default 8; the rest queue FIFO)\n"
      "  --slice-events N         events per session per scheduling round\n"
      "                           (default 4096)\n"
      "  --status-out PATH        write the final status JSON document\n"
      "                           (schema wst-serve-v1, sessions table +\n"
      "                           serve counters)\n"
      "  --verify                 also run every session alone and require\n"
      "                           byte-identical results (verdict, events,\n"
      "                           metrics, DOT, trace hash, ...)\n"
      "\n"
      "  serve exit code: 0 = all sessions clean, 2 = deadlock verdict(s),\n"
      "  3 = --verify parity mismatch\n");
}

/// The one parser behind every numeric flag: the whole of `text` must spell
/// a T in [lo, hi]. Anything else is a usage error that names the flag, the
/// accepted range and the text, and exits 1. `base` 0 is strtoull's seed
/// syntax: 0x for hex, a leading 0 for octal, decimal otherwise.
template <typename T>
T parseNumber(const std::string& flag, std::string_view text, T lo,
              T hi = std::numeric_limits<T>::max(), int base = 10) {
  std::string_view digits = text;
  if (base == 0) {
    base = 10;
    if (digits.size() > 1 && digits[0] == '0') {
      const bool hex = digits[1] == 'x' || digits[1] == 'X';
      base = hex ? 16 : 8;
      digits.remove_prefix(hex ? 2 : 1);
    }
  }
  const char* end = digits.data() + digits.size();
  T value{};
  std::from_chars_result parsed;
  if constexpr (std::is_floating_point_v<T>) {
    parsed = std::from_chars(digits.data(), end, value);
  } else {
    parsed = std::from_chars(digits.data(), end, value, base);
  }
  // Written so that NaN fails the range check.
  if (parsed.ec == std::errc{} && parsed.ptr == end && value >= lo &&
      value <= hi) {
    return value;
  }
  const auto bound = [](T v) {
    if constexpr (std::is_floating_point_v<T>) {
      return support::format("%.17g", static_cast<double>(v));
    } else {
      return std::to_string(v);
    }
  };
  std::string expected =
      std::is_floating_point_v<T> ? "a number" : "an integer";
  if (hi != std::numeric_limits<T>::max()) {
    expected += " from " + bound(lo) + " to " + bound(hi);
  } else if (lo != std::numeric_limits<T>::lowest()) {
    expected += " >= " + bound(lo);
  }
  std::fprintf(stderr, "%s: expected %s, got '%.*s'\n", flag.c_str(),
               expected.c_str(), static_cast<int>(text.size()), text.data());
  std::exit(1);
}

/// A 64-bit seed in strtoull's base-0 syntax.
std::uint64_t parseSeed(const std::string& flag, std::string_view text) {
  return parseNumber<std::uint64_t>(flag, text, 0,
                                    std::numeric_limits<std::uint64_t>::max(),
                                    0);
}

int runFuzz(int argc, char** argv) {
  fuzz::FuzzConfig cfg;
  cfg.runs = 100;
  std::string replayPath;
  std::optional<std::uint64_t> printSeed;
  bool noFaults = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--runs") {
      cfg.runs = parseNumber<std::int32_t>(arg, value(), 1);
    } else if (arg == "--seed") {
      cfg.seed = parseSeed(arg, value());
    } else if (arg == "--threads") {
      cfg.threads = parseNumber<std::int32_t>(arg, value(), 1);
    } else if (arg == "--batch") {
      cfg.batch = true;
    } else if (arg == "--hierarchical") {
      cfg.hierarchical = true;
    } else if (arg == "--hybrid") {
      cfg.hybrid = true;
    } else if (arg == "--no-faults") {
      noFaults = true;
    } else if (arg == "--fault-kinds") {
      const std::string kinds = value();
      if (kinds.find("crash") != std::string::npos) cfg.crashFaults = true;
      if (kinds.find("crash") == std::string::npos && kinds != "default") {
        std::fprintf(stderr, "unknown fault kind '%s'\n", kinds.c_str());
        return 1;
      }
    } else if (arg == "--inject-bug") {
      cfg.injectBug = parseNumber<std::int32_t>(arg, value(), 0);
    } else if (arg == "--out-dir") {
      cfg.outDir = value();
    } else if (arg == "--budget-sec") {
      cfg.budgetSec = parseNumber(arg, value(), 0.0);
    } else if (arg == "--no-shrink") {
      cfg.shrinkOnDivergence = false;
    } else if (arg == "--shrink-budget") {
      cfg.shrinkBudget = parseNumber<std::size_t>(arg, value(), 0);
    } else if (arg == "--emit-corpus") {
      cfg.emitCorpusDir = value();
    } else if (arg == "--replay") {
      replayPath = value();
    } else if (arg == "--print-scenario") {
      printSeed = parseSeed(arg, value());
    } else if (arg == "--help" || arg == "-h") {
      printUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown fuzz option '%s'\n", arg.c_str());
      return 1;
    }
  }
  cfg.faults = !noFaults;

  if (printSeed) {
    fuzz::GenOptions gen;
    gen.allowCrash = cfg.crashFaults;
    std::fputs(fuzz::makeScenario(*printSeed, gen).serialize().c_str(),
               stdout);
    return 0;
  }

  if (!replayPath.empty()) {
    std::ifstream in(replayPath, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", replayPath.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    const auto scenario = fuzz::Scenario::parse(text.str(), &error);
    if (!scenario) {
      std::fprintf(stderr, "cannot parse %s: %s\n", replayPath.c_str(),
                   error.c_str());
      return 1;
    }
    fuzz::RunOptions options;
    options.faults = cfg.faults && scenario->faults.any();
    options.threads = cfg.threads;
    options.batch = cfg.batch;
    options.hierarchical = cfg.hierarchical;
    options.hybrid = cfg.hybrid;
    options.injectBug = cfg.injectBug;
    const std::string reason =
        fuzz::replayScenario(*scenario, options, std::cout);
    return reason.empty() ? 0 : 3;
  }

  const fuzz::FuzzReport report = fuzz::runFuzzCampaign(cfg, std::cout);
  return report.divergences > 0 ? 3 : 0;
}

/// Write one output file through `write`. A file that cannot be written gets
/// a warning naming `what` and returns false, so the caller prints no
/// success line.
template <typename Write>
bool writeFile(const std::string& path, const char* what, const Write& write) {
  std::ofstream out(path);
  if (out) {
    write(out);
    out.close();
  }
  if (out) return true;
  std::fprintf(stderr, "warning: cannot write %s to %s\n", what, path.c_str());
  return false;
}

/// Build the serve session for scenario seed `seed`: the same zero-overhead
/// tool configuration the fuzz oracle uses, so a served session's verdict is
/// comparable with `wst fuzz --print-scenario seed` + replay.
must::SessionSpec makeServeSession(std::int32_t index, std::uint64_t seed) {
  return fuzz::sessionSpec(
      support::format("s%03d-%016llx", index,
                      static_cast<unsigned long long>(seed)),
      std::make_shared<const fuzz::Scenario>(fuzz::makeScenario(seed)));
}

int runServe(int argc, char** argv) {
  must::ServeServer::Config cfg;
  std::int32_t sessions = 8;
  std::uint64_t seed = 1;
  std::string statusOut;
  bool verify = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--sessions") {
      sessions = parseNumber<std::int32_t>(arg, value(), 1);
    } else if (arg == "--seed") {
      seed = parseSeed(arg, value());
    } else if (arg == "--threads") {
      cfg.threads = parseNumber<std::int32_t>(arg, value(), 1);
    } else if (arg == "--session-cap") {
      cfg.sessionCap = parseNumber<std::int32_t>(arg, value(), 1);
    } else if (arg == "--slice-events") {
      cfg.sliceEvents = parseNumber<std::uint64_t>(arg, value(), 1);
    } else if (arg == "--status-out") {
      statusOut = value();
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--help" || arg == "-h") {
      printUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown serve option '%s'\n", arg.c_str());
      return 1;
    }
  }

  std::vector<must::SessionSpec> specs;
  specs.reserve(static_cast<std::size_t>(sessions));
  for (std::int32_t i = 0; i < sessions; ++i) {
    specs.push_back(makeServeSession(i, seed + static_cast<std::uint64_t>(i)));
  }

  must::ServeServer server(cfg);
  for (const must::SessionSpec& spec : specs) server.submit(spec);
  server.run();

  for (const must::SessionResult& r : server.results()) {
    std::printf("%-24s %s rounds=%llu events=%llu\n", r.name.c_str(),
                r.summary.c_str(), static_cast<unsigned long long>(r.rounds),
                static_cast<unsigned long long>(r.eventsExecuted));
  }
  std::printf(
      "serve: %llu admitted, %llu completed, %llu evicted, %llu deadlocks, "
      "%llu rounds\n",
      static_cast<unsigned long long>(server.admitted()),
      static_cast<unsigned long long>(server.completed()),
      static_cast<unsigned long long>(server.evicted()),
      static_cast<unsigned long long>(server.deadlocks()),
      static_cast<unsigned long long>(server.roundsRun()));

  if (!statusOut.empty()) {
    writeFile(statusOut, "status",
              [&](std::ostream& out) { out << server.statusJson(); });
  }

  if (verify) {
    std::int32_t mismatches = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const must::SessionResult& served = server.results()[i];
      const std::string field =
          must::firstDifference(served, must::runSessionSolo(specs[i]));
      if (!field.empty()) {
        std::fprintf(stderr, "serve: PARITY MISMATCH %s: %s\n",
                     served.name.c_str(), field.c_str());
        ++mismatches;
      }
    }
    if (mismatches > 0) return 3;
    std::printf("serve: all %zu sessions byte-identical to solo runs\n",
                specs.size());
  }
  return server.deadlocks() > 0 ? 2 : 0;
}

/// A virtual-millisecond flag value in ns. Negative, NaN or huge values are
/// usage errors: their cast is undefined.
sim::Duration durationMs(const std::string& flag, const char* text) {
  const double ms =
      parseNumber(flag, text, 0.0, sim::kMaxInputDuration / 1e6);
  return static_cast<sim::Duration>(ms * 1e6);
}

std::optional<mpi::Runtime::Program> makeWorkload(const Options& opt) {
  workloads::StressParams stress;
  stress.iterations = opt.iterations;
  stress.neighborDistance = opt.distance;
  stress.activeRanks = opt.active;
  if (opt.workload == "stress") return workloads::cyclicExchange(stress);
  if (opt.workload == "unsafe-stress") {
    return workloads::unsafeCyclicExchange(stress);
  }
  if (opt.workload == "wildcard") return workloads::wildcardDeadlock();
  if (opt.workload == "recv-recv") return workloads::recvRecvDeadlock();
  if (opt.workload == "figure2b") return workloads::figure2b();
  if (opt.workload == "figure4") return workloads::figure4();
  if (const workloads::SpecApp* app = workloads::findSpecApp(opt.workload)) {
    workloads::SpecScale scale;
    scale.iterations = std::max(opt.iterations / 5, 2);
    scale.computeScale = 256.0 / opt.procs;
    return app->make(scale);
  }
  return std::nullopt;
}

int listWorkloads() {
  std::puts("built-in workloads:");
  std::puts("  stress          paper §6 cyclic-exchange stress test (safe)");
  std::puts("  unsafe-stress   send-before-recv variant (flagged as unsafe)");
  std::puts("  wildcard        paper Fig. 10: p^2-arc wildcard deadlock");
  std::puts("  recv-recv       paper Fig. 2(a): head-to-head receives");
  std::puts("  figure2b        paper Fig. 2(b): wildcards + send-send");
  std::puts("  figure4         paper Fig. 4: unexpected match scenario");
  std::puts("\nSPEC MPI2007 proxies:");
  for (const workloads::SpecApp& app : workloads::specSuite()) {
    std::printf("  %-15s %s%s\n", app.name, app.notes,
                app.excludedFromAverage ? " [excluded from averages]" : "");
  }
  return 0;
}

int runWorkload(const Options& opt) {
  const auto program = makeWorkload(opt);
  if (!program) {
    std::fprintf(stderr, "unknown workload '%s' (try: wst list)\n",
                 opt.workload.c_str());
    return 1;
  }

  mpi::RuntimeConfig mpiCfg;
  mpiCfg.bufferStandardSends = !opt.noBuffer;
  if (opt.rootedCollectives) {
    mpiCfg.collectiveSync = mpi::CollectiveSync::kRooted;
  }

  must::ToolConfig toolCfg;
  toolCfg.fanIn = opt.centralized ? std::max(opt.procs, 2) : opt.fanIn;
  toolCfg.blockingModel = opt.faithful
                              ? trace::BlockingModel::kImplementationFaithful
                              : trace::BlockingModel::kConservative;
  toolCfg.prioritizeWaitState = opt.prioritize;
  toolCfg.batchWaitState = opt.batch;
  toolCfg.periodicDetection = opt.periodic;
  toolCfg.incrementalGather = !opt.noIncremental;
  toolCfg.hierarchicalCheck = opt.hierarchicalCheck;
  toolCfg.verify = opt.verify;

  // Any telemetry output implies the timeline + overhead accounting; health
  // beats stay a separate opt-in because they add protocol traffic.
  const bool telemetry = opt.telemetry || opt.top || !opt.statusOut.empty() ||
                         !opt.timelineOut.empty() || opt.beatInterval > 0;
  toolCfg.telemetry = telemetry;
  toolCfg.healthBeatInterval = opt.beatInterval;
  toolCfg.muteHealthBeatNode = opt.muteNode;

  // Certificate must outlive the tool: the wrapper consults it on every
  // sampled event.
  std::optional<analysis::Certificate> certificate;
  if (opt.hybrid) {
    certificate = must::certifyWorkload(opt.procs, mpiCfg, *program);
    std::printf("hybrid: %s\n", certificate->summary().c_str());
    toolCfg.certificate = &*certificate;
  }

  std::printf("running '%s' on %d simulated ranks (%s, fan-in %d, %s b)...\n",
              opt.workload.c_str(), opt.procs,
              opt.centralized ? "centralized" : "distributed", toolCfg.fanIn,
              opt.faithful ? "implementation-faithful" : "conservative");

  // N worker threads (N == 1 executes inline, no threads spawned). Periodic
  // detection runs on the root node's LP.
  sim::ParallelEngine engine(opt.threads);

  // The flight recorder is only constructed when asked for; everywhere else
  // a null tracer/track pointer short-circuits before any argument work.
  std::optional<support::Tracer> tracer;
  if (!opt.traceOut.empty()) {
    support::Tracer::Config traceCfg;
    traceCfg.capacityPerTrack = static_cast<std::size_t>(opt.traceDepth);
    traceCfg.clock = [&engine] {
      return static_cast<std::uint64_t>(engine.now());
    };
    tracer.emplace(traceCfg);
    engine.setTraceTrack(
        tracer->track(support::TrackKind::kEngine, 0, "engine"));
    toolCfg.tracer = &*tracer;
  }

  mpi::Runtime runtime(engine, mpiCfg, opt.procs);
  if (tracer) runtime.setTracer(&*tracer);
  must::DistributedTool tool(engine, runtime, toolCfg);

  std::optional<must::StatusWriter> statusWriter;
  if (!opt.statusOut.empty()) {
    must::StatusWriter::Config swCfg;
    swCfg.path = opt.statusOut;
    swCfg.interval = opt.statusInterval;
    statusWriter.emplace(engine, tool, swCfg);
    statusWriter->start();
  }

  runtime.runToCompletion(*program);

  // Telemetry finalization runs before publishMetrics: the engine's own
  // stats legitimately vary with the worker count, so folding them into the
  // registry first would break the byte-stability of the status/timeline
  // documents across --threads 1..N.
  // Attached regardless of the telemetry flag: the section self-guards and
  // also surfaces dropped trace events and overlay fault totals from plain
  // traced/fault-injected runs.
  tool.attachTelemetryToReport();
  if (telemetry) {
    tool.finalizeTelemetry();
    if (statusWriter) {
      statusWriter->writeFinal();
      if (statusWriter->written()) {
        std::printf("status written to %s (%s rewrites)\n",
                    opt.statusOut.c_str(),
                    support::withCommas(statusWriter->rewrites()).c_str());
      } else {
        std::fprintf(stderr, "warning: cannot write status to %s\n",
                     opt.statusOut.c_str());
      }
    }
    if (!opt.timelineOut.empty() && tool.timeline() != nullptr &&
        writeFile(opt.timelineOut, "timeline", [&](std::ostream& out) {
          out << tool.timeline()->toJson() << "\n";
        })) {
      std::printf("timeline JSON written to %s\n", opt.timelineOut.c_str());
    }
  }

  engine.publishMetrics(tool.metrics(), /*includePerWorker=*/opt.engineStats);
  if (tracer) {
    tool.metrics().gauge("trace/dropped_events")
        .set(static_cast<std::int64_t>(tracer->totalDropped()));
    tool.attachTraceToReport();
    if (writeFile(opt.traceOut, "trace", [&](std::ostream& out) {
          out << support::toChromeTraceJson(*tracer);
        })) {
      std::printf("trace written to %s (%s events dropped)\n",
                  opt.traceOut.c_str(),
                  support::withCommas(tracer->totalDropped()).c_str());
    }
  }

  std::printf("\napplication: %s (virtual runtime %s, %s MPI calls)\n",
              runtime.allFinalized() ? "completed" : "DID NOT COMPLETE",
              support::formatDurationNs(engine.now()).c_str(),
              support::withCommas(runtime.totalCalls()).c_str());
  std::printf("tool: %s transitions analyzed, %s messages, max trace window "
              "%zu\n",
              support::withCommas(tool.totalTransitions()).c_str(),
              support::withCommas(tool.overlay().totalMessages()).c_str(),
              tool.maxWindowSize());
  if (opt.hybrid) {
    std::printf("hybrid: %s certified ops sampled, %s tracker messages "
                "suppressed\n",
                support::withCommas(
                    tool.metrics().counter("tracker/certified_ops").value())
                    .c_str(),
                support::withCommas(tool.metrics()
                                        .counter("tracker/suppressed_msgs/"
                                                 "hybrid")
                                        .value())
                    .c_str());
  }
  if (opt.batch) {
    std::printf("batching: %s intralayer messages in %s channel messages\n",
                support::withCommas(
                    tool.overlay().messages(tbon::LinkClass::kIntralayer))
                    .c_str(),
                support::withCommas(tool.overlay().channelMessages(
                                        tbon::LinkClass::kIntralayer))
                    .c_str());
  }
  if (opt.engineStats) {
    const sim::ParallelEngine::Stats& st = engine.stats();
    std::printf("engine: %d thread(s), %d LPs, lookahead %s, %s rounds, "
                "%s horizon stalls, %s cross-LP events "
                "(mailbox high water %zu), trace hash %016llx\n",
                engine.threads(), engine.lpCount(),
                support::formatDurationNs(engine.lookahead()).c_str(),
                support::withCommas(st.rounds).c_str(),
                support::withCommas(st.horizonStalls).c_str(),
                support::withCommas(st.crossLpEvents).c_str(),
                st.mailboxHighWater,
                static_cast<unsigned long long>(engine.traceHash()));
    const support::Histogram& occ = engine.roundOccupancy();
    std::printf("engine: runnable LPs per round p50 %.1f, p99 %.1f, max %s\n",
                occ.quantile(0.5), occ.quantile(0.99),
                support::withCommas(occ.max()).c_str());
    for (std::size_t w = 0; w < st.workerEvents.size(); ++w) {
      std::printf("engine: worker %zu executed %s events\n", w,
                  support::withCommas(st.workerEvents[w]).c_str());
    }
  }
  if (opt.beatInterval > 0) {
    std::uint64_t beatsSeen = 0;
    std::uint32_t reporting = 0;
    for (const must::DistributedTool::NodeHealth& h : tool.healthTable()) {
      beatsSeen += h.beatsSeen;
      reporting += h.everSeen ? 1 : 0;
    }
    std::printf("health: %u/%zu node(s) reporting, %s beat row(s) at root, "
                "%u stale\n",
                reporting, tool.healthTable().size(),
                support::withCommas(beatsSeen).c_str(), tool.staleNodeCount());
    for (std::size_t n = 0; n < tool.healthTable().size(); ++n) {
      if (tool.healthTable()[n].stale) {
        std::printf("health: node %zu STALE (last beat at %s ns)\n", n,
                    support::withCommas(tool.healthTable()[n].arrivedAtNs)
                        .c_str());
      }
    }
  }
  if (opt.top && tool.timeline() != nullptr) {
    const support::MetricsTimeline& tl = *tool.timeline();
    std::printf("\ntimeline: %s capture(s), %s evicted, %zu retained\n",
                support::withCommas(tl.captured()).c_str(),
                support::withCommas(tl.evicted()).c_str(), tl.size());
    for (const support::MetricsTimeline::Point& point : tl.points()) {
      // Show the largest movers per point; ties break on the series key so
      // the rendering is deterministic.
      auto deltas = point.deltas;
      std::sort(deltas.begin(), deltas.end(),
                [](const auto& a, const auto& b) {
                  const std::int64_t ma = a.second < 0 ? -a.second : a.second;
                  const std::int64_t mb = b.second < 0 ? -b.second : b.second;
                  if (ma != mb) return ma > mb;
                  return a.first < b.first;
                });
      constexpr std::size_t kTopMovers = 4;
      const std::size_t shown = std::min(deltas.size(), kTopMovers);
      std::string movers;
      for (std::size_t i = 0; i < shown; ++i) {
        movers += support::format("%s%s %+lld", i == 0 ? "" : "; ",
                                  deltas[i].first.c_str(),
                                  static_cast<long long>(deltas[i].second));
      }
      if (deltas.size() > shown) {
        movers += support::format(" (+%zu more)", deltas.size() - shown);
      }
      std::printf("  %14s  %-9s %s\n",
                  support::withCommas(
                      static_cast<std::uint64_t>(point.timeNs)).c_str(),
                  point.label.c_str(), movers.c_str());
    }
  }
  if (!opt.metricsPath.empty() &&
      writeFile(opt.metricsPath, "metrics", [&](std::ostream& out) {
        out << tool.metricsJson() << "\n";
      })) {
    std::printf("metrics JSON written to %s\n", opt.metricsPath.c_str());
  }

  if (opt.compare) {
    sim::ParallelEngine refEngine;
    mpi::Runtime refRuntime(refEngine, mpiCfg, opt.procs);
    refRuntime.runToCompletion(*program);
    if (refEngine.now() > 0) {
      std::printf("slowdown vs untooled reference: %.2fx\n",
                  static_cast<double>(engine.now()) /
                      static_cast<double>(refEngine.now()));
    }
  }

  for (const std::string& err : tool.usageErrors()) {
    std::printf("MPI usage error: %s\n", err.c_str());
  }
  for (const auto& um : tool.unexpectedMatches()) {
    std::printf(
        "UNEXPECTED MATCH: wildcard (%d,%u) could take active send (%d,%u) "
        "but matching chose (%d,%u)\n",
        um.wildcardRecv.proc, um.wildcardRecv.ts, um.activeSend.proc,
        um.activeSend.ts, um.matchedSend.proc, um.matchedSend.ts);
  }

  // Per-round delta statistics of the incremental detection pipeline.
  for (const auto& rs : tool.roundHistory()) {
    if (rs.hierarchical && !opt.verify) {
      std::printf(
          "round %u: hierarchical check, root saw %llu boundary node(s), "
          "%llu arc run(s)%s\n",
          rs.epoch, static_cast<unsigned long long>(rs.boundaryNodes),
          static_cast<unsigned long long>(rs.boundaryArcs),
          rs.deadlock ? " [deadlock]" : "");
      continue;
    }
    std::printf(
        "round %u: %u changed + %u unchanged conditions, %u repruned%s%s\n",
        rs.epoch, rs.changed, rs.unchanged, rs.repruned,
        rs.hierarchical
            ? support::format(", %llu boundary node(s)",
                              static_cast<unsigned long long>(
                                  rs.boundaryNodes))
                  .c_str()
            : "",
        rs.deadlock ? " [deadlock]" : "");
  }
  if (opt.verify) {
    if (tool.divergences() > 0) {
      std::printf("verify: %u DIVERGENT round(s)\n", tool.divergences());
      return 3;
    }
    if (tool.detectionsRun() > 0) {
      std::printf("verify: %u round(s), zero divergences\n",
                  tool.detectionsRun());
    }
  }
  if (opt.verify && certificate) {
    // The certificate may only elide tracking, never change what the tool
    // sees: rerun without it and compare the two terminal observations.
    sim::ParallelEngine plainEngine(opt.threads);
    mpi::Runtime plainRuntime(plainEngine, mpiCfg, opt.procs);
    must::ToolConfig plainCfg = toolCfg;
    plainCfg.certificate = nullptr;
    plainCfg.tracer = nullptr;
    must::DistributedTool plainTool(plainEngine, plainRuntime, plainCfg);
    plainRuntime.runToCompletion(*program);
    const std::string difference =
        fuzz::compareOutcomes(fuzz::observe(plainTool, plainEngine),
                              fuzz::observe(tool, engine));
    if (!difference.empty()) {
      std::printf("verify: hybrid run DIVERGES from the plain run: %s\n",
                  difference.c_str());
      return 3;
    }
    std::printf("verify: hybrid run agrees with the plain run\n");
  }

  if (!tool.report()) {
    std::puts("\nverdict: no detection round ran (analysis finished cleanly)");
    return 0;
  }
  const wfg::Report& report = *tool.report();
  std::printf("\nverdict: %s\n", report.summary.c_str());
  if (report.deadlock) {
    const auto& t = report.times;
    std::printf("detection time: %s (sync %s, gather %s, build %s, check %s, "
                "output %s)\n",
                support::formatDurationNs(t.totalNs()).c_str(),
                support::formatDurationNs(t.synchronizationNs).c_str(),
                support::formatDurationNs(t.wfgGatherNs).c_str(),
                support::formatDurationNs(t.graphBuildNs).c_str(),
                support::formatDurationNs(t.deadlockCheckNs).c_str(),
                support::formatDurationNs(t.outputGenerationNs).c_str());
    std::printf("wait-for graph: %s arcs\n",
                support::withCommas(report.check.arcCount).c_str());
  }

  if (!opt.htmlPath.empty() &&
      writeFile(opt.htmlPath, "HTML report",
                [&](std::ostream& out) { out << report.html; })) {
    std::printf("HTML report written to %s\n", opt.htmlPath.c_str());
  }

  // The report does not keep the graph, so the DOT artifacts render the
  // terminal wait-for graph.
  if (report.deadlock &&
      (!opt.dotPath.empty() || !opt.compressedDotPath.empty())) {
    const wfg::WaitForGraph graph = tool.terminalGraph();
    if (!opt.dotPath.empty() &&
        writeFile(opt.dotPath, "DOT graph", [&](std::ostream& out) {
          graph.writeDot([&](std::string_view s) { out << s; },
                         report.check.deadlocked);
        })) {
      std::printf("DOT graph written to %s\n", opt.dotPath.c_str());
    }
    if (!opt.compressedDotPath.empty()) {
      const wfg::CompressedGraph compressed =
          wfg::compress(graph, report.check.deadlocked);
      if (writeFile(opt.compressedDotPath, "compressed DOT",
                    [&](std::ostream& out) { out << compressed.toDot(); })) {
        std::printf("compressed DOT written to %s (%s)\n",
                    opt.compressedDotPath.c_str(),
                    compressed.summary().c_str());
      }
    }
  }
  return report.deadlock ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    printUsage();
    return 1;
  }
  const std::string command = argv[1];
  if (command == "list") return listWorkloads();
  if (command == "fuzz") return runFuzz(argc, argv);
  if (command == "serve") return runServe(argc, argv);
  if (command != "run" && command != "top") {
    printUsage();
    return 1;
  }

  Options opt;
  opt.top = command == "top";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--procs") {
      opt.procs = parseNumber<std::int32_t>(arg, value(), 2);
    } else if (arg == "--fanin") {
      opt.fanIn = parseNumber(arg, value(), std::numeric_limits<std::int32_t>::min());
    } else if (arg == "--iterations") {
      opt.iterations = parseNumber<std::int32_t>(arg, value(), 1);
    } else if (arg == "--distance") {
      opt.distance = parseNumber(arg, value(), std::numeric_limits<std::int32_t>::min());
    } else if (arg == "--active") {
      opt.active = parseNumber<std::int32_t>(arg, value(), 0);
    } else if (arg == "--threads") {
      opt.threads = parseNumber<std::int32_t>(arg, value(), 1);
    } else if (arg == "--engine-stats") {
      opt.engineStats = true;
    } else if (arg == "--periodic-ms") {
      opt.periodic = durationMs(arg, value());
    } else if (arg == "--no-incremental") {
      opt.noIncremental = true;
    } else if (arg == "--hierarchical-check") {
      opt.hierarchicalCheck = true;
    } else if (arg == "--hybrid") {
      opt.hybrid = true;
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--dot") {
      opt.dotPath = value();
    } else if (arg == "--compressed-dot") {
      opt.compressedDotPath = value();
    } else if (arg == "--html") {
      opt.htmlPath = value();
    } else if (arg == "--metrics") {
      opt.metricsPath = value();
    } else if (arg == "--trace-out") {
      opt.traceOut = value();
    } else if (arg == "--trace-depth") {
      opt.traceDepth = parseNumber<std::int32_t>(arg, value(), 16);
    } else if (arg == "--telemetry") {
      opt.telemetry = true;
    } else if (arg == "--status-out") {
      opt.statusOut = value();
    } else if (arg == "--status-interval-ms") {
      opt.statusInterval = durationMs(arg, value());
    } else if (arg == "--beat-interval-ms") {
      opt.beatInterval = durationMs(arg, value());
    } else if (arg == "--timeline-out") {
      opt.timelineOut = value();
    } else if (arg == "--mute-node") {
      opt.muteNode = parseNumber<std::int32_t>(arg, value(), -1);
    } else if (arg == "--batch") {
      opt.batch = true;
    } else if (arg == "--centralized") {
      opt.centralized = true;
    } else if (arg == "--faithful") {
      opt.faithful = true;
    } else if (arg == "--no-buffer") {
      opt.noBuffer = true;
    } else if (arg == "--rooted-collectives") {
      opt.rootedCollectives = true;
    } else if (arg == "--prioritize") {
      opt.prioritize = true;
    } else if (arg == "--compare") {
      opt.compare = true;
    } else if (arg == "--help" || arg == "-h") {
      printUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 1;
    }
  }
  if (!opt.centralized && opt.fanIn < 2) {
    std::fprintf(stderr, "--fanin must be at least 2\n");
    return 1;
  }
  return runWorkload(opt);
}
