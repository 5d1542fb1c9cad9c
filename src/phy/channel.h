// Bands, channels and carrier frequencies.
#pragma once

#include <cstdint>

namespace politewifi::phy {

/// The two bands the paper's timing argument distinguishes: SIFS is 10 us
/// in 2.4 GHz (802.11b/g/n heritage) and 16 us in 5 GHz (802.11a/ac).
enum class Band : std::uint8_t {
  k2_4GHz,
  k5GHz,
};

/// Center frequency in Hz for a channel number in the given band.
/// 2.4 GHz: ch 1..13 -> 2412 + 5*(ch-1) MHz. 5 GHz: 5000 + 5*ch MHz.
double channel_frequency_hz(Band band, int channel);

/// 20 MHz — the only channel width the simulator models (ACKs and legacy
/// control responses always use 20 MHz non-HT duplicates anyway).
constexpr double kChannelBandwidthHz = 20e6;

/// OFDM subcarrier spacing (20 MHz / 64).
constexpr double kSubcarrierSpacingHz = 312.5e3;

/// Number of populated (data + pilot) subcarriers in a legacy 20 MHz OFDM
/// symbol: -26..-1, +1..+26.
constexpr int kNumSubcarriers = 52;

/// Maps subcarrier index 0..51 to its frequency offset from the carrier.
/// Index 0 -> -26 * spacing ... index 51 -> +26 * spacing (DC skipped).
double subcarrier_offset_hz(int index);

}  // namespace politewifi::phy
