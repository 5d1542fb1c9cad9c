// Shared helpers for the perf benches.
//
// Each bench reports engine throughput (events/sec, simulated-time over
// wall-time) and emits a machine-readable BENCH_<name>.json via
// PerfReport — which lives in src/runtime/perf_report.h since the
// experiment runtime and the benches share one canonical JSON writer.
// The JSONs land at the repo root (PW_BENCH_DEFAULT_DIR, baked in by
// CMake) where they are committed; tools/bench_compare.py diffs a fresh
// run against the committed baselines and the bench-regression CI job
// gates on it. Set PW_BENCH_DIR to redirect where the JSON lands (e.g.
// CI scratch).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/flags.h"
#include "runtime/perf_report.h"

namespace politewifi::bench {

using PerfReport = runtime::PerfReport;

inline void header(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void section(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

/// Reads a scale override from the environment (PW_SCALE), used by the
/// expensive benches to allow quick runs: PW_SCALE=0.05 bench_table2...
/// A malformed or non-positive value exits 2 with a named error, so call
/// it before any simulation runs: a typo must not silently buy a
/// full-scale run.
inline double env_scale(double default_scale) {
  const char* s = std::getenv("PW_SCALE");
  if (s == nullptr) return default_scale;
  double v = 0.0;
  if (!common::parse_double(s, &v) || v <= 0.0) {
    std::fprintf(stderr, "PW_SCALE: expected a positive number, got \"%s\"\n",
                 s);
    std::exit(2);
  }
  return v;
}

inline void kv(const char* key, const std::string& value) {
  std::printf("  %-44s %s\n", key, value.c_str());
}

inline void kvf(const char* key, const char* fmt, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, value);
  kv(key, buf);
}

/// Paper-vs-measured comparison row.
inline void compare(const char* what, const std::string& paper,
                    const std::string& measured) {
  std::printf("  %-36s paper: %-18s measured: %s\n", what, paper.c_str(),
              measured.c_str());
}

}  // namespace politewifi::bench
