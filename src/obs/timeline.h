// TimelineProfiler: Chrome-tracing / Perfetto trace emission.
//
// Two kinds of spans share one trace so a run renders visually:
//
//   - *Sim-time* spans: one track per radio (pid = the owning medium's
//     timeline group, tid = the radio id), one complete ("ph":"X") event
//     per radio power-state dwell. A battery-drain run opened in
//     Perfetto shows the paper's Figure 6 duty cycle directly.
//   - *Wall-time* spans: PW_TIMEIT scopes (experiment runs) on
//     per-thread tracks under the reserved pid 0.
//
// The trace is diagnostics, not a result: span order, wall timestamps
// and group numbering depend on thread scheduling, so timelines are
// never golden-gated and never enter the canonical JSON document (the
// determinism rules live in OBSERVABILITY.md). That freedom is why the
// hooks may use atomics and the host clock.
//
// The profiler is installed process-wide (`set_active_timeline`) by
// whoever wants a trace — `pw_run --timeline`, a test — and every hook
// is a no-op while none is installed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace politewifi::obs {

class TimelineProfiler {
 public:
  /// Spans kept per trace; beyond this they are counted as dropped
  /// rather than growing without bound (city-scale runs emit millions
  /// of state changes).
  static constexpr std::size_t kMaxSpans = 1u << 20;

  /// Reserved pid for wall-clock (PW_TIMEIT) tracks; sim groups start
  /// at 1 (allocate_timeline_group).
  static constexpr std::int64_t kWallPid = 0;

  /// One radio power-state dwell in simulated time. `name` must point
  /// at a static string (state names are).
  void add_sim_span(const char* name, std::int64_t pid, std::int64_t tid,
                    std::int64_t ts_ns, std::int64_t dur_ns);

  /// One wall-clock scope ending now, `dur_ns` long; the track is the
  /// calling thread's.
  void add_wall_span(const char* name, std::int64_t dur_ns);

  /// Chrome trace-event JSON, canonical text with a trailing newline:
  /// {"displayTimeUnit": "ms", "traceEvents": [...]} — loadable by
  /// chrome://tracing and ui.perfetto.dev. Timestamps are microseconds
  /// (sim spans: simulated time; wall spans: host time since the
  /// profiler's first use). Built one event at a time: a city-scale run
  /// fills kMaxSpans, and a Json tree of the whole trace would cost
  /// ~2 GB where the text is ~160 MB.
  std::string dump() const;

 private:
  struct Span {
    const char* name;
    std::int64_t pid;
    std::int64_t tid;
    std::int64_t ts_ns;
    std::int64_t dur_ns;
  };

  void push(const Span& span) PW_REQUIRES(mutex_);

  mutable common::Mutex mutex_;
  std::vector<Span> spans_ PW_GUARDED_BY(mutex_);
  std::size_t dropped_ PW_GUARDED_BY(mutex_) = 0;
};

/// The installed profiler, or nullptr (hooks disabled). Installation is
/// not reference-counted: the runtime installs around one run at a time.
TimelineProfiler* active_timeline();
void set_active_timeline(TimelineProfiler* timeline);

/// Process-unique pid for one medium's radio tracks (>= 1; pid 0 is the
/// wall-clock group). Monotonic across the process — uniqueness is all
/// the trace needs, so concurrent simulations may interleave.
std::int64_t allocate_timeline_group();

}  // namespace politewifi::obs
