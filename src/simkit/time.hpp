// Virtual time for the discrete-event simulation.
//
// All simulated clocks are integer nanoseconds so that experiment results
// are reproducible bit-for-bit across runs and platforms.  Helpers convert
// to and from floating-point seconds only at reporting boundaries.
#pragma once

#include <cstdint>

namespace grid::sim {

/// Virtual time or duration, in nanoseconds since simulation start.
using Time = std::int64_t;

inline constexpr Time kNanosecond = 1;
inline constexpr Time kMicrosecond = 1000 * kNanosecond;
inline constexpr Time kMillisecond = 1000 * kMicrosecond;
inline constexpr Time kSecond = 1000 * kMillisecond;
inline constexpr Time kMinute = 60 * kSecond;
inline constexpr Time kHour = 60 * kMinute;

/// Sentinel meaning "no deadline" / "never".
inline constexpr Time kTimeNever = INT64_MAX;

/// Converts a duration in (possibly fractional) seconds to virtual time.
constexpr Time from_seconds(double s) {
  return static_cast<Time>(s * static_cast<double>(kSecond));
}

/// Converts virtual time to fractional seconds (for reporting only).
constexpr double to_seconds(Time t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

}  // namespace grid::sim
