// Client (non-AP STA) upper MAC: scanning, association, WPA2 supplicant
// handshake, and 802.11 power save.
//
// Power save is the battery-drain attack's lever (§4.2): a battery
// device dozes whenever it has been idle for `idle_timeout`, waking only
// for beacons. *Any* received frame — including a stranger's fake null
// frame — counts as activity and resets the timer; above ~1/idle_timeout
// frames per second the radio simply never sleeps, and each elicited ACK
// adds transmit energy on top.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "crypto/wpa2.h"
#include "frames/data.h"
#include "frames/management.h"
#include "mac/eapol.h"
#include "mac/role.h"

namespace politewifi::mac {

struct ClientConfig {
  std::string ssid = "PrivateNet";
  std::string passphrase = "correct horse battery staple";
  phy::Band band = phy::Band::k2_4GHz;

  /// Power-save: doze after `idle_timeout` of no traffic, wake every
  /// `listen_interval` beacons. ESP8266-class defaults.
  bool power_save = false;
  Duration idle_timeout = milliseconds(100);
  int listen_interval = 1;
  /// How long the radio stays up around an expected beacon (receive +
  /// TIM processing margin).
  Duration beacon_wake_window = milliseconds(5);

  /// Skip PBKDF2, ~3 ms per derivation (see ApConfig::fast_keys); both
  /// sides must agree.
  bool fast_keys = false;

  /// 802.11w Protected Management Frames (the paper's footnote 2): once
  /// keys exist, deauthentication must be CCMP-protected, which defeats
  /// the classic spoofed-deauth DoS. It does NOT touch Polite WiFi:
  /// ACKs/CTS are control frames and control frames cannot be protected.
  bool pmf = false;

  phy::PhyRate mgmt_rate = phy::kOfdm6;
  phy::PhyRate data_rate = phy::kOfdm24;

  /// ARF rate adaptation on the client's DCF path (forwarded into
  /// MacConfig::adaptive_rate): data frames ride the controller's
  /// current rung instead of the fixed data_rate. Under a
  /// time-correlated fading channel the resulting ladder trajectory
  /// (Station::rate_controller().trajectory()) is the rate-adaptation
  /// observable the fading experiments report.
  bool adaptive_rate = false;
  ArfConfig arf{};
};

struct ClientStats {
  std::uint64_t beacons_heard = 0;
  std::uint64_t ps_polls_sent = 0;
  std::uint64_t doze_transitions = 0;  // awake -> doze edges
  std::uint64_t wake_transitions = 0;
  std::uint64_t msdus_received = 0;
  std::uint64_t decrypt_failures = 0;  // protected frames failing the MIC
  std::uint64_t frames_discarded = 0;  // fake/invalid frames dropped in
                                       // software (long after the ACK)
  std::uint64_t deauths_accepted = 0;       // link teardowns honoured
  std::uint64_t spoofed_deauths_rejected = 0;  // PMF saves (802.11w)
  std::uint64_t activity_resets = 0;   // idle timer resets from RX
};

class ClientRole {
 public:
  using AssociatedCallback = std::function<void()>;

  ClientRole(ClientConfig config, RoleContext ctx);

  /// Starts scanning for the configured SSID and associates when found.
  void start();

  void set_on_associated(AssociatedCallback cb) { on_associated_ = std::move(cb); }

  const ClientConfig& config() const { return config_; }
  const ClientStats& stats() const { return stats_; }
  bool established() const { return phase_ == Phase::kEstablished; }
  bool dozing() const { return dozing_; }
  const std::optional<MacAddress>& bssid() const { return bssid_; }

  /// Sends an application MSDU to the AP over the protected link.
  void send_msdu(Bytes msdu);

  /// Installs an already-established link (see
  /// ApRole::install_established_client). Starts power save if enabled.
  void install_established(const MacAddress& bssid, std::uint16_t aid,
                           const crypto::Ptk& ptk);

  /// Defensive override (defense::BatteryGuard): while forced, the role
  /// suspends its own power-save machinery — no beacon wakes, and
  /// received traffic does not wake the device. The caller owns the
  /// radio's sleep state for the duration.
  void set_forced_doze(bool forced);
  bool forced_doze() const { return forced_doze_; }

 private:
  enum class Phase {
    kScanning,
    kAuthenticating,
    kAssociating,
    kHandshake,
    kEstablished,
  };

  void on_frame(const frames::Frame& frame, const phy::RxVector& rx);
  void handle_beacon(const frames::Frame& frame);
  void handle_management(const frames::Frame& frame);
  void handle_eapol(const EapolKey& msg);
  void handle_data(const frames::Frame& frame);

  // Power-save machinery.
  void note_activity();
  void consider_dozing();
  void enter_doze();
  void wake_for_beacon();
  crypto::Nonce make_nonce();

  ClientConfig config_;
  RoleContext ctx_;
  ClientStats stats_;
  Phase phase_ = Phase::kScanning;
  std::optional<MacAddress> bssid_;
  Duration beacon_interval_ = milliseconds(102);
  TimePoint last_beacon_{};

  crypto::Pmk pmk_{};
  crypto::Nonce anonce_{}, snonce_{};
  crypto::Ptk ptk_{};
  std::optional<crypto::Wpa2Session> session_;
  std::uint16_t aid_ = 0;

  bool dozing_ = false;
  bool forced_doze_ = false;
  TimePoint last_activity_{};
  std::uint64_t idle_timer_ = 0;
  bool idle_timer_armed_ = false;

  AssociatedCallback on_associated_;
  Rng rng_;
};

}  // namespace politewifi::mac
