// Paper Figure 4 / §3.3: unexpected matches. A non-synchronizing rooted
// collective (Reduce) lets the send of rank 2 — issued *after* the
// collective — match the first wildcard receive of rank 1, which the
// conservative blocking model places *before* the collective. The analysis
// then cannot advance past its initial region; the formal transition system
// detects the situation and reports the unexpected match.
//
//   $ ./examples/unexpected_match
#include <cstdio>

#include "must/recorder.hpp"
#include "sim/parallel_engine.hpp"
#include "waitstate/transition_system.hpp"
#include "workloads/stress.hpp"

using namespace wst;

int main() {
  // Execute Figure 4 on an MPI whose rooted collectives do not synchronize.
  mpi::RuntimeConfig mpiCfg;
  mpiCfg.collectiveSync = mpi::CollectiveSync::kRooted;

  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpiCfg, 3);
  must::Recorder recorder(runtime);
  runtime.runToCompletion(workloads::figure4());

  std::printf("application completed: %s (non-synchronizing Reduce lets "
              "rank 2's send overtake)\n\n",
              runtime.allFinalized() ? "yes" : "no");

  const trace::MatchedTrace trace = recorder.finish();
  waitstate::TransitionSystem ts(trace);
  ts.runToTerminal();

  std::printf("conservative wait state analysis terminal state: (");
  for (std::size_t i = 0; i < ts.state().size(); ++i) {
    std::printf("%s%u", i ? ", " : "", ts.state()[i]);
  }
  std::printf(")\nall processes finished in the analysis: %s\n\n",
              ts.allFinished() ? "yes" : "no");

  const auto unexpected = ts.findUnexpectedMatches();
  if (unexpected.empty()) {
    std::printf("no unexpected matches found\n");
    return 1;
  }
  for (const auto& um : unexpected) {
    std::printf("UNEXPECTED MATCH (paper §3.3):\n");
    std::printf("  wildcard receive (%d,%u) is active and could match the\n"
                "  active send (%d,%u), but point-to-point matching bound it\n"
                "  to send (%d,%u), which is not active in this state.\n",
                um.wildcardRecv.proc, um.wildcardRecv.ts,
                um.activeSendCandidate.proc, um.activeSendCandidate.ts,
                um.matchedSend.proc, um.matchedSend.ts);
    std::printf("  => the blocking model must be adapted to the MPI "
                "implementation's choices\n     (or standard sends/collectives "
                "forced synchronous), as the paper discusses.\n");
  }
  return 0;
}
