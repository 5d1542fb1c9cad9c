// Packet capture: the simulator's Wireshark.
//
// A TraceRecorder hooks the medium's trace sink and records every PPDU
// with its parsed frame. It renders the same packet-list view the paper
// screenshots in Figures 2 and 3 (source / destination / info).
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "frames/serializer.h"
#include "sim/medium.h"

namespace politewifi::sim {

struct TraceEntry {
  TimePoint time{};
  std::string sender_name;  // device name when known
  Bytes raw;                // full on-air MPDU
  phy::TxVector tx;
  frames::Frame frame;      // parsed view
  bool parsed = false;
};

class TraceRecorder {
 public:
  /// Installs this recorder as the medium's trace sink.
  void attach(Medium& medium);

  /// Optional resolver mapping a radio to a human-readable device name.
  using NameResolver = std::function<std::string(const Radio&)>;
  void set_name_resolver(NameResolver resolver) {
    resolver_ = std::move(resolver);
  }

  /// Keep only frames involving `mac` (as any address). Empty = keep all.
  void set_address_filter(const std::vector<MacAddress>& macs) {
    filter_ = macs;
  }

  const std::vector<TraceEntry>& entries() const { return entries_; }
  void clear() { entries_.clear(); }

  /// Wireshark-style packet list:
  ///   No. Time      Source            Destination       Info
  void dump(std::ostream& os, std::size_t max_rows = 0) const;

 private:
  void record(const TransmissionEvent& event);
  bool passes_filter(const frames::Frame& f) const;

  std::vector<TraceEntry> entries_;
  NameResolver resolver_;
  std::vector<MacAddress> filter_;
};

}  // namespace politewifi::sim
