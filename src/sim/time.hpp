// Virtual time for the discrete-event simulation.
//
// All latency, bandwidth, and processing costs in the simulated MPI runtime
// and the simulated TBON are expressed in virtual nanoseconds. Virtual time
// is the quantity every reproduction benchmark reports (slowdowns are ratios
// of virtual completion times), decoupling the reproduction from the speed of
// the machine running it.
#pragma once

#include <cstdint>

namespace wst::sim {

/// Virtual nanoseconds since simulation start.
using Time = std::uint64_t;

/// A span of virtual time, also in nanoseconds.
using Duration = std::uint64_t;

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1'000;
inline constexpr Duration kMillisecond = 1'000'000;
inline constexpr Duration kSecond = 1'000'000'000;

/// Largest duration accepted from outside input (CLI flags, `.wst` files):
/// a clock that adds a few of them stays far below 2^64 ns.
inline constexpr Duration kMaxInputDuration = 1'000 * kSecond;

/// Convert virtual nanoseconds to floating-point seconds for reporting.
inline double toSeconds(Duration d) { return static_cast<double>(d) / 1e9; }

}  // namespace wst::sim
