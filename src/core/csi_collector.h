// CSI harvesting via elicited ACKs — the §4.1/§4.3 measurement loop.
//
// Streams fake frames at a victim at a configured rate and records the
// CSI of every ACK that comes back. This is the one-device sensing
// front-end the paper proposes: no cooperation, no association, no
// key material, software on the attacker only.
#pragma once

#include <memory>
#include <vector>

#include "core/ack_sniffer.h"
#include "core/injector.h"
#include "phy/csi.h"

namespace politewifi::core {

/// The sample type moved to phy/csi.h so the sensing layer can consume
/// it without depending on core; the alias keeps existing core-side
/// spellings working.
using CsiSample = phy::CsiSample;

class CsiCollector {
 public:
  /// `attacker` must have capture_csi enabled on its radio.
  CsiCollector(sim::Device& attacker, MacAddress target,
               InjectorConfig config = InjectorConfig{});

  /// Starts streaming fake frames at `rate_pps` (paper uses 150).
  void start(double rate_pps);
  void stop();

  const std::vector<CsiSample>& samples() const { return samples_; }
  void clear() { samples_.clear(); }

  std::uint64_t frames_injected() const {
    return injector_.stats().frames_injected;
  }

 private:
  sim::Device& attacker_;
  MacAddress target_;
  MonitorHub hub_;
  FakeFrameInjector injector_;
  AckSniffer sniffer_;
  std::vector<CsiSample> samples_;
};

}  // namespace politewifi::core
