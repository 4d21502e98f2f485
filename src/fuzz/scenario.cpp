#include "fuzz/scenario.hpp"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "support/strings.hpp"

namespace wst::fuzz {
namespace {

constexpr std::array<const char*, kOpKindCount> kOpNames = {
    "send",    "bsend",   "ssend",     "recv",   "sendrecv",
    "probe",   "isend",   "irecv",     "wait",   "waitall",
    "waitany", "waitsome", "barrier",  "bcast",  "reduce",
    "allreduce", "gather", "alltoall", "commsplit", "compute",
    "phase",
};

/// Probabilities print on a fixed 1e-4 grid so serialize() is reproducible
/// byte for byte and parse() round-trips exactly.
std::string formatProb(double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", p);
  return buf;
}

/// Read one virtual-time value. `>>` into an unsigned type accepts a
/// leading '-' and wraps it to about 2^64, so that sign is rejected first.
bool readTime(std::istream& in, sim::Duration& out) {
  return (in >> std::ws).peek() != '-' && in >> out &&
         out <= sim::kMaxInputDuration;
}

}  // namespace

const char* opKindName(OpKind kind) {
  return kOpNames[static_cast<std::size_t>(kind)];
}

std::optional<OpKind> opKindFromName(const std::string& name) {
  for (int i = 0; i < kOpKindCount; ++i) {
    if (name == kOpNames[static_cast<std::size_t>(i)]) {
      return static_cast<OpKind>(i);
    }
  }
  return std::nullopt;
}

std::string Scenario::serialize() const {
  std::string out;
  out += "wstfuzz 1\n";
  out += support::format("seed %llu\n",
                         static_cast<unsigned long long>(seed));
  out += support::format("procs %d\n", procs);
  out += support::format("fanin %d\n", fanIn);
  out += support::format("periodic %lld\n",
                         static_cast<long long>(periodic));
  out += support::format("detection_jitter %lld\n",
                         static_cast<long long>(detectionJitter));
  out += support::format("consumed_history %llu\n",
                         static_cast<unsigned long long>(consumedHistory));
  out += support::format("latency %lld %lld %lld\n",
                         static_cast<long long>(latIntra),
                         static_cast<long long>(latUp),
                         static_cast<long long>(latDown));
  out += "faults drop " + formatProb(faults.drop);
  out += " dup " + formatProb(faults.dup);
  out += " delay " + formatProb(faults.delay);
  out += support::format(" maxdelay %lld jitter %lld seed %llu\n",
                         static_cast<long long>(faults.maxExtraDelay),
                         static_cast<long long>(faults.jitter),
                         static_cast<unsigned long long>(faults.seed));
  if (crash.enabled) {
    out += support::format("crash %d %lld\n", crash.nodeIndex,
                           static_cast<long long>(crash.at));
  }
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    out += support::format("rank %llu\n",
                           static_cast<unsigned long long>(r));
    for (const Op& op : ranks[r]) {
      out += support::format("op %s %d %d %d %d %d %d\n", opKindName(op.kind),
                             op.peer, op.tag, op.peer2, op.tag2, op.bytes,
                             op.comm);
    }
  }
  out += "end\n";
  return out;
}

std::optional<Scenario> Scenario::parse(const std::string& text,
                                        std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<Scenario> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  const auto badTime = [&](const std::string& field) {
    return fail("bad " + field + ": expected 0.." +
                std::to_string(sim::kMaxInputDuration) + " virtual ns");
  };
  std::istringstream in(text);
  std::string word;
  if (!(in >> word) || word != "wstfuzz") return fail("missing wstfuzz header");
  int version = 0;
  if (!(in >> version) || version != 1) return fail("unsupported version");

  Scenario sc;
  sc.ranks.clear();
  std::vector<Op>* current = nullptr;
  while (in >> word) {
    if (word == "end") {
      if (static_cast<std::int32_t>(sc.ranks.size()) != sc.procs) {
        return fail("rank section count does not match procs");
      }
      if (sc.procs < 1 || sc.procs > 512) return fail("procs out of range");
      if (sc.fanIn < 2) return fail("fanin must be at least 2");
      return sc;
    }
    if (word == "seed") {
      if (!(in >> sc.seed)) return fail("bad seed");
    } else if (word == "procs") {
      if (!(in >> sc.procs)) return fail("bad procs");
    } else if (word == "fanin") {
      if (!(in >> sc.fanIn)) return fail("bad fanin");
    } else if (word == "periodic") {
      if (!readTime(in, sc.periodic)) return badTime("periodic");
    } else if (word == "detection_jitter") {
      if (!readTime(in, sc.detectionJitter)) return badTime("detection_jitter");
    } else if (word == "consumed_history") {
      if (!(in >> sc.consumedHistory)) return fail("bad consumed_history");
    } else if (word == "latency") {
      if (!readTime(in, sc.latIntra) || !readTime(in, sc.latUp) ||
          !readTime(in, sc.latDown)) {
        return badTime("latency");
      }
      if (sc.latIntra <= 0 || sc.latUp <= 0 || sc.latDown <= 0) {
        return fail("latencies must be positive");
      }
    } else if (word == "faults") {
      std::string key;
      if (!(in >> key >> sc.faults.drop) || key != "drop") {
        return fail("bad faults line (drop)");
      }
      if (!(in >> key >> sc.faults.dup) || key != "dup") {
        return fail("bad faults line (dup)");
      }
      if (!(in >> key >> sc.faults.delay) || key != "delay") {
        return fail("bad faults line (delay)");
      }
      if (!(in >> key) || key != "maxdelay" ||
          !readTime(in, sc.faults.maxExtraDelay)) {
        return badTime("faults maxdelay");
      }
      if (!(in >> key) || key != "jitter" || !readTime(in, sc.faults.jitter)) {
        return badTime("faults jitter");
      }
      if (!(in >> key >> sc.faults.seed) || key != "seed") {
        return fail("bad faults line (seed)");
      }
    } else if (word == "crash") {
      sc.crash.enabled = true;
      if (!(in >> sc.crash.nodeIndex)) return fail("bad crash line");
      if (!readTime(in, sc.crash.at)) return badTime("crash time");
      if (sc.crash.nodeIndex < 0) return fail("crash node index negative");
      if (sc.crash.at <= 0) return fail("crash time must be positive");
    } else if (word == "rank") {
      std::size_t index = 0;
      if (!(in >> index) || index != sc.ranks.size()) {
        return fail("rank sections must be consecutive from 0");
      }
      sc.ranks.emplace_back();
      current = &sc.ranks.back();
    } else if (word == "op") {
      if (current == nullptr) return fail("op before any rank section");
      std::string kindName;
      Op op;
      if (!(in >> kindName >> op.peer >> op.tag >> op.peer2 >> op.tag2 >>
            op.bytes >> op.comm)) {
        return fail("malformed op line");
      }
      const auto kind = opKindFromName(kindName);
      if (!kind) return fail("unknown op kind: " + kindName);
      op.kind = *kind;
      current->push_back(op);
    } else {
      return fail("unknown keyword: " + word);
    }
  }
  return fail("missing end marker");
}

}  // namespace wst::fuzz
