#include "core/ack_sniffer.h"

namespace politewifi::core {

AckSniffer::AckSniffer(MonitorHub& hub, const mac::MacEnvironment& env,
                       MacAddress ra_filter)
    : env_(env), ra_filter_(ra_filter) {
  hub.add_tap([this](const frames::Frame& f, const phy::RxVector& rx) {
    on_frame(f, rx);
  });
}

void AckSniffer::on_frame(const frames::Frame& frame,
                          const phy::RxVector& rx) {
  const bool ack = frame.fc.is_ack();
  const bool cts = frame.fc.is_cts();
  if (!ack && !cts) return;
  if (frame.addr1 != ra_filter_) return;

  AckObservation obs;
  obs.time = env_.now();
  obs.ra = frame.addr1;
  obs.rssi_dbm = rx.rssi_dbm;
  obs.csi = rx.csi;
  obs.is_cts = cts;
  acks_.push_back(std::move(obs));
}

}  // namespace politewifi::core
