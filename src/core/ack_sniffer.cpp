#include "core/ack_sniffer.h"

namespace politewifi::core {

AckSniffer::AckSniffer(MonitorHub& hub, const mac::MacEnvironment& env,
                       MacAddress ra_filter)
    : env_(env), ra_filter_(ra_filter) {
  hub.add_tap([this](const frames::Frame& f, const phy::RxVector& rx) {
    on_frame(f, rx);
  });
}

void AckSniffer::note_injection(const MacAddress& target) {
  pending_.push_back({env_.now(), target});
  // Bound the queue: drop entries far outside the window.
  const TimePoint cutoff = env_.now() - 10 * window_;
  while (!pending_.empty() && pending_.front().at < cutoff) {
    pending_.pop_front();
  }
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

  // Attribute to the most recent injection inside the window.
  const TimePoint now = env_.now();
  for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
    if (now - it->at <= window_) {
      obs.attributed_victim = it->target;
      break;
    }
  }
  acks_.push_back(std::move(obs));
}

std::size_t AckSniffer::count_from(const MacAddress& victim) const {
  std::size_t n = 0;
  for (const auto& a : acks_) n += a.attributed_victim == victim ? 1 : 0;
  return n;
}

}  // namespace politewifi::core
