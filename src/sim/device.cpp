#include "sim/device.h"

namespace politewifi::sim {

Device::Device(Medium& medium, Scheduler& scheduler, DeviceInfo info,
               mac::MacConfig mac_config, RadioConfig radio_config,
               std::uint64_t seed)
    : info_(std::move(info)),
      radio_(medium, scheduler, radio_config),
      station_(mac_config, radio_, Rng(seed)),
      rng_(seed ^ 0xabcdef) {
  radio_.set_station(&station_);
}

mac::RoleContext Device::role_context() {
  return mac::RoleContext{
      .station = &station_,
      .env = &radio_,
      .set_radio_sleep = [this](bool s) { radio_.set_sleeping(s); },
      .rng = rng_.fork(),
  };
}

mac::ApRole& Device::make_ap(mac::ApConfig config) {
  ap_ = std::make_unique<mac::ApRole>(std::move(config), role_context());
  ap_->start();
  return *ap_;
}

mac::ClientRole& Device::make_client(mac::ClientConfig config) {
  client_ =
      std::make_unique<mac::ClientRole>(std::move(config), role_context());
  client_->start();
  return *client_;
}

}  // namespace politewifi::sim
