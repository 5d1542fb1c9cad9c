#include "scenario/device_profiles.h"

namespace politewifi::scenario {

std::vector<ChipsetProfile> table1_devices() {
  // Power numbers are representative of each class; the experiment cares
  // that ACK behaviour is invariant, not about their exact draw.
  const sim::PowerProfile laptop{.off_mw = 0,
                                 .sleep_mw = 30,
                                 .idle_mw = 900,
                                 .rx_mw = 1100,
                                 .tx_mw = 2000,
                                 .tx_ramp = microseconds(80)};
  const sim::PowerProfile phone{.off_mw = 0,
                                .sleep_mw = 12,
                                .idle_mw = 320,
                                .rx_mw = 400,
                                .tx_mw = 900,
                                .tx_ramp = microseconds(150)};
  const sim::PowerProfile iot{.off_mw = 0,
                              .sleep_mw = 10,
                              .idle_mw = 230,
                              .rx_mw = 230,
                              .tx_mw = 560,
                              .tx_ramp = microseconds(230)};

  return {
      {.device_name = "MSI GE62 laptop",
       .wifi_module = "Intel AC 3160",
       .standard = "11ac",
       .vendor = "Intel",
       .band = phy::Band::k5GHz,
       .power = laptop,
       .sifs_jitter_ns = 80.0},
      {.device_name = "Ecobee3 thermostat",
       .wifi_module = "Atheros",
       .standard = "11n",
       .vendor = "ecobee",
       .band = phy::Band::k2_4GHz,
       .power = iot,
       .sifs_jitter_ns = 200.0},
      {.device_name = "Surface Pro 2017",
       .wifi_module = "Marvel 88W8897",
       .standard = "11ac",
       .vendor = "Microsoft",
       .band = phy::Band::k5GHz,
       .power = laptop,
       .sifs_jitter_ns = 90.0},
      {.device_name = "Samsung Galaxy S8",
       .wifi_module = "Murata KM5D18098",
       .standard = "11ac",
       .vendor = "Murata",
       .band = phy::Band::k5GHz,
       .power = phone,
       .sifs_jitter_ns = 120.0},
      {.device_name = "Google Wifi AP",
       .wifi_module = "Qualcomm IPQ 4019",
       .standard = "11ac",
       .vendor = "Google",
       .band = phy::Band::k5GHz,
       .is_access_point = true,
       .deauth_on_unknown = true,  // the Figure 3 subject
       .power = sim::PowerProfile::mains_powered(),
       .sifs_jitter_ns = 60.0},
  };
}

ChipsetProfile esp8266() {
  return {.device_name = "ESP8266 module",
          .wifi_module = "Espressif ESP8266EX",
          .standard = "11n",
          .vendor = "Espressif",
          .band = phy::Band::k2_4GHz,
          .power = sim::PowerProfile::esp8266(),
          .sifs_jitter_ns = 250.0};
}

CameraSpec logitech_circle2() {
  return {.name = "Logitech Circle 2",
          .battery_mwh = 2400.0,
          .advertised_life = "up to 3 months"};
}

CameraSpec blink_xt2() {
  return {.name = "Amazon Blink XT2",
          .battery_mwh = 6000.0,
          .advertised_life = "up to 2 years"};
}

}  // namespace politewifi::scenario
