#include "core/csi_collector.h"

namespace politewifi::core {

CsiCollector::CsiCollector(sim::Device& attacker, MacAddress target,
                           InjectorConfig config)
    : attacker_(attacker),
      target_(target),
      hub_(attacker.station()),
      injector_(attacker, config),
      sniffer_(hub_, attacker.radio(), config.spoofed_source) {
  // With a single fixed victim every matching ACK is attributable, so the
  // collector records straight off the monitor tap.
  hub_.add_tap([this](const frames::Frame& f, const phy::RxVector& rx,
                      bool fcs_ok) {
    if (!fcs_ok) return;
    if (!(f.fc.is_ack() || f.fc.is_cts())) return;
    if (f.addr1 != injector_.config().spoofed_source) return;
    if (!rx.csi) return;
    samples_.push_back(CsiSample{attacker_.radio().now(), *rx.csi,
                                 rx.rssi_dbm});
  });
}

void CsiCollector::start(double rate_pps) {
  injector_.start_stream(target_, rate_pps);
}

void CsiCollector::stop() { injector_.stop_stream(target_); }

}  // namespace politewifi::core
