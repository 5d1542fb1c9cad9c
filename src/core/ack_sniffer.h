// ACK/CTS observation — the sensing pipeline's measurement front-end.
//
// ACK frames carry no transmitter address, only the receiver (our spoofed
// source), so an observation records who the response was addressed to,
// when it arrived and what the channel looked like. Crediting an ACK to
// a victim is the wardrive survey's job (WardriveCampaign::on_ack).
#pragma once

#include <optional>
#include <vector>

#include "core/monitor.h"
#include "phy/csi.h"

namespace politewifi::core {

struct AckObservation {
  TimePoint time{};
  MacAddress ra;  // who the ACK was addressed to (the spoofed source)
  double rssi_dbm = -100.0;
  std::optional<phy::CsiSnapshot> csi;
  bool is_cts = false;  // CTS elicited by a fake RTS (§2.2 variant)
};

class AckSniffer {
 public:
  /// Subscribes to `hub`, keeping ACK/CTS frames addressed to `ra_filter`
  /// (typically the spoofed source). `env` supplies timestamps.
  AckSniffer(MonitorHub& hub, const mac::MacEnvironment& env,
             MacAddress ra_filter);

  const std::vector<AckObservation>& observations() const { return acks_; }
  std::uint64_t total() const { return acks_.size(); }
  void clear() { acks_.clear(); }

 private:
  void on_frame(const frames::Frame& frame, const phy::RxVector& rx);

  const mac::MacEnvironment& env_;
  MacAddress ra_filter_;
  std::vector<AckObservation> acks_;
};

}  // namespace politewifi::core
