#include "phy/channel.h"

namespace politewifi::phy {

double channel_frequency_hz(Band band, int channel) {
  switch (band) {
    case Band::k2_4GHz:
      if (channel == 14) return 2484e6;  // Japan's oddball
      return (2412.0 + 5.0 * (channel - 1)) * 1e6;
    case Band::k5GHz:
      return (5000.0 + 5.0 * channel) * 1e6;
  }
  return 0.0;
}

double subcarrier_offset_hz(int index) {
  // index 0..25 -> subcarrier -26..-1; index 26..51 -> +1..+26.
  const int k = index < 26 ? index - 26 : index - 25;
  return k * kSubcarrierSpacingHz;
}

}  // namespace politewifi::phy
