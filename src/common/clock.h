// Simulated time.
//
// The discrete-event simulator advances time in integer nanoseconds. 802.11
// timing constants (SIFS = 10 us / 16 us, slot = 9/20 us, symbol = 4 us)
// are exact multiples of a microsecond, but ACK turnaround jitter and
// propagation delays benefit from sub-microsecond resolution.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

namespace politewifi {

/// Simulation duration, signed 64-bit nanoseconds (±292 years — plenty).
using Duration = std::chrono::nanoseconds;

/// Absolute simulation time since the start of the run.
using TimePoint = std::chrono::time_point<std::chrono::steady_clock, Duration>;

using std::chrono::hours;
using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::minutes;
using std::chrono::nanoseconds;
using std::chrono::seconds;

constexpr TimePoint kSimStart{Duration::zero()};

/// Seconds as double — for rate math and report output.
constexpr double to_seconds(Duration d) {
  return std::chrono::duration<double>(d).count();
}

constexpr double to_microseconds(Duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

constexpr Duration from_seconds(double s) {
  return std::chrono::duration_cast<Duration>(std::chrono::duration<double>(s));
}

/// Formats a TimePoint as "12.345678s" for trace output.
inline std::string format_time(TimePoint t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6fs", to_seconds(t.time_since_epoch()));
  return buf;
}

}  // namespace politewifi
