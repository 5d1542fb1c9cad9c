#include "sim/trace.h"

#include <cstdio>

#include "sim/radio.h"

namespace politewifi::sim {

void TraceRecorder::attach(Medium& medium) {
  medium.set_trace_sink(
      [this](const TransmissionEvent& ev) { record(ev); });
}

bool TraceRecorder::passes_filter(const frames::Frame& f) const {
  if (filter_.empty()) return true;
  for (const auto& mac : filter_) {
    if (f.addr1 == mac || (f.has_addr2() && f.addr2 == mac) ||
        (f.has_addr3() && f.addr3 == mac)) {
      return true;
    }
  }
  return false;
}

void TraceRecorder::record(const TransmissionEvent& event) {
  TraceEntry entry;
  entry.time = event.start;
  // The event's payload is a pooled buffer that will be recycled after
  // delivery; a sink that outlives the callback must copy the octets.
  entry.raw.assign(event.ppdu.octets().begin(), event.ppdu.octets().end());
  entry.tx = event.tx;
  if (resolver_ && event.sender != nullptr) {
    entry.sender_name = resolver_(*event.sender);
  }
  // The packet view decodes once per transmission, at transmit time —
  // not once per receiver.
  const auto parsed = frames::deserialize(entry.raw);  // pw-lint: allow(per-receiver-decode)
  if (parsed.frame) {
    entry.frame = *parsed.frame;
    entry.parsed = true;
    if (!passes_filter(entry.frame)) return;
  }
  entries_.push_back(std::move(entry));
}

void TraceRecorder::dump(std::ostream& os, std::size_t max_rows) const {
  os << "No.   Time         Source             Destination        Info\n";
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (max_rows != 0 && n >= max_rows) break;
    ++n;
    char line[256];
    const std::string src =
        e.parsed && e.frame.has_addr2() ? e.frame.addr2.to_string() : "-";
    const std::string dst = e.parsed ? e.frame.addr1.to_string() : "?";
    const std::string info = e.parsed ? e.frame.summary() : "[undecodable]";
    std::snprintf(line, sizeof line, "%-5zu %-12s %-18s %-18s %s\n", n,
                  format_time(e.time).c_str(), src.c_str(), dst.c_str(),
                  info.c_str());
    os << line;
  }
}

}  // namespace politewifi::sim
