#include "must/hybrid.hpp"

#include "analysis/classifier.hpp"
#include "analysis/trace_program.hpp"
#include "must/recorder.hpp"
#include "sim/parallel_engine.hpp"

namespace wst::must {

analysis::Certificate certifyWorkload(std::int32_t procs,
                                      const mpi::RuntimeConfig& mpiConfig,
                                      const mpi::Runtime::Program& program) {
  sim::ParallelEngine engine;
  mpi::Runtime runtime(engine, mpiConfig, procs);
  Recorder recorder(runtime);
  runtime.runToCompletion(program);
  if (!runtime.allFinalized()) {
    // The profile deadlocked or stalled: certify nothing — the dynamic
    // tracker must see the whole run to report it.
    analysis::Certificate empty;
    empty.procCount = procs;
    empty.sampleUntil.assign(static_cast<std::size_t>(procs), 0);
    return empty;
  }
  const trace::MatchedTrace trace = recorder.finish();
  return analysis::analyzeProgram(analysis::programFromTrace(trace));
}

}  // namespace wst::must
