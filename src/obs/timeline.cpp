#include "obs/timeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/json.h"

namespace politewifi::obs {

namespace {

std::atomic<TimelineProfiler*> g_active_timeline{nullptr};
std::atomic<std::int64_t> g_next_group{1};
std::atomic<std::int64_t> g_next_thread_ordinal{0};

/// Wall timestamps are reported relative to the first span of the
/// process, keeping trace numbers small and origin-free.
std::int64_t wall_now_ns() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::int64_t thread_ordinal() {
  thread_local const std::int64_t ordinal =
      g_next_thread_ordinal.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

TimelineProfiler* active_timeline() {
  return g_active_timeline.load(std::memory_order_acquire);
}

void set_active_timeline(TimelineProfiler* timeline) {
  g_active_timeline.store(timeline, std::memory_order_release);
}

std::int64_t allocate_timeline_group() {
  return g_next_group.fetch_add(1, std::memory_order_relaxed);
}

void TimelineProfiler::push(const Span& span) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

void TimelineProfiler::add_sim_span(const char* name, std::int64_t pid,
                                    std::int64_t tid, std::int64_t ts_ns,
                                    std::int64_t dur_ns) {
  // pw-analyze: allow(hot-lock): timeline hooks only run while a
  // profiler is installed (pw_run --timeline); benched and golden-gated
  // paths run with no profiler, so the hot fan-out never reaches this
  // lock in a measured configuration (see the header: traces are
  // diagnostics, exempt from the determinism rules).
  common::MutexLock lock(mutex_);
  push(Span{name, pid, tid, ts_ns, dur_ns});
}

void TimelineProfiler::add_wall_span(const char* name, std::int64_t dur_ns) {
  const std::int64_t end_ns = wall_now_ns();
  common::MutexLock lock(mutex_);
  push(Span{name, kWallPid, thread_ordinal(),
            std::max<std::int64_t>(0, end_ns - dur_ns), dur_ns});
}

std::string TimelineProfiler::dump() const {
  common::MutexLock lock(mutex_);
  std::string out = "{\n  \"displayTimeUnit\": \"ms\",\n";
  if (dropped_ > 0) {
    out += "  \"droppedSpans\": " + std::to_string(dropped_) + ",\n";
  }
  out += "  \"traceEvents\": ";
  // Each event is one element of the top-level array: its canonical
  // dump re-indented to that depth, the bytes Json::dump() of the whole
  // document would produce.
  bool first = true;
  const auto append_event = [&](const common::Json& event) {
    out += first ? "[\n    " : ",\n    ";
    first = false;
    const std::string text = event.dump();
    std::size_t from = 0;
    for (std::size_t nl = text.find('\n'); nl != std::string::npos;
         from = nl + 1, nl = text.find('\n', from)) {
      out.append(text, from, nl + 1 - from);
      out += "    ";
    }
    out.append(text, from, std::string::npos);
  };
  // Track which pids appear so each gets a process_name metadata row.
  std::vector<std::int64_t> pids;
  common::Json e = common::Json::object();  // reused: same keys every span
  for (const Span& span : spans_) {
    e["name"] = span.name;
    e["cat"] = span.pid == kWallPid ? "wall" : "radio";
    e["ph"] = "X";
    e["pid"] = span.pid;
    e["tid"] = span.tid;
    e["ts"] = double(span.ts_ns) / 1000.0;   // Chrome wants microseconds
    e["dur"] = double(span.dur_ns) / 1000.0;
    append_event(e);
    if (std::find(pids.begin(), pids.end(), span.pid) == pids.end()) {
      pids.push_back(span.pid);
    }
  }
  std::sort(pids.begin(), pids.end());
  for (const std::int64_t pid : pids) {
    common::Json meta = common::Json::object();
    meta["name"] = "process_name";
    meta["ph"] = "M";
    meta["pid"] = pid;
    common::Json args = common::Json::object();
    args["name"] = pid == kWallPid
                       ? std::string("workers (wall clock)")
                       : "radios (sim time, medium " + std::to_string(pid) +
                             ")";
    meta["args"] = std::move(args);
    append_event(meta);
  }
  out += first ? "[]" : "\n  ]";
  out += "\n}\n";
  return out;
}

}  // namespace politewifi::obs
