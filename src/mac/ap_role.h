// Access-point upper MAC: beaconing, association, WPA2 handshake,
// power-save buffering — and the Figure 3 deauth-on-unknown behaviour.
//
// Everything here is *software*, running far above the low-MAC that sends
// ACKs. The role can detect the attacker, deauth it, even blocklist its
// MAC — and the hardware below keeps ACKing regardless, because by the
// time this code sees a frame the ACK left one SIFS after the frame did.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "crypto/wpa2.h"
#include "frames/data.h"
#include "frames/management.h"
#include "mac/eapol.h"
#include "mac/role.h"

namespace politewifi::mac {

struct ApConfig {
  std::string ssid = "PrivateNet";
  std::string passphrase = "correct horse battery staple";
  phy::Band band = phy::Band::k2_4GHz;
  int channel = 6;
  Duration beacon_interval = milliseconds(102);  // ~100 TU
  bool send_beacons = true;

  /// Figure 3: some APs classify a stranger's class-3 frames as a
  /// malfunctioning client and fire deauthentication bursts at it.
  bool deauth_unknown_senders = false;
  /// Transmissions per deauth (initial + retries). The spoofed address
  /// never ACKs, so the MAC retransmits with the same sequence number —
  /// the paper's capture shows triplets, hence 3.
  int deauth_burst = 3;
  Duration deauth_min_interval = milliseconds(60);  // per-sender rate limit

  /// Skip PBKDF2 when standing up thousands of BSSes for the wardriving
  /// survey (keys still flow through the PRF/CCMP path). A real PMK is
  /// 16,384 SHA-1 compressions, ~3 ms on a 4-core x86-64 host
  /// (RelWithDebInfo), and the AP and each client derive their own: two
  /// per AP–client pair, tens of seconds of set-up for a full-scale
  /// survey. The knob also stays because the fast PTK's bytes differ
  /// from the real one's, and the experiments that set it are pinned by
  /// goldens.
  bool fast_keys = false;

  /// 802.11w: protect deauth/disassoc to established clients.
  bool pmf = false;

  phy::PhyRate mgmt_rate = phy::kOfdm6;
  phy::PhyRate data_rate = phy::kOfdm24;
};

struct ApStats {
  std::uint64_t beacons_sent = 0;
  std::uint64_t probe_responses = 0;
  std::uint64_t deauths_sent = 0;
  std::uint64_t associations = 0;
  std::uint64_t handshakes_completed = 0;
  std::uint64_t msdus_received = 0;       // decrypted uplink payloads
  std::uint64_t decrypt_failures = 0;     // protected frames that fail MIC
  std::uint64_t software_drops_blocked = 0;  // frames from blocklisted MACs
  std::uint64_t software_drops_unknown = 0;  // class-3 from strangers
  std::uint64_t ps_buffered = 0;
  std::uint64_t ps_delivered = 0;
};

class ApRole {
 public:
  ApRole(ApConfig config, RoleContext ctx);

  /// Begins beaconing and frame handling. Installs itself as the
  /// station's upper handler.
  void start();

  /// Pauses/resumes the beacon loop. The wardriving city uses this to
  /// keep only the APs near the survey vehicle on air.
  void set_beaconing(bool on);
  bool beaconing() const { return beaconing_; }

  const ApConfig& config() const { return config_; }
  const ApStats& stats() const { return stats_; }
  const MacAddress& bssid() const { return ctx_.station->address(); }

  /// §2.1's last-ditch countermeasure: software-blocklist a MAC. The role
  /// will drop its frames in software — and the experiment shows the
  /// hardware ACKs anyway.
  void block_mac(const MacAddress& mac) { blocklist_.insert(mac); }
  bool is_blocked(const MacAddress& mac) const {
    return blocklist_.count(mac) > 0;
  }

  /// Sends an MSDU to an associated client (CCMP-protected). Buffers it
  /// if the client is dozing, to be released by PS-Poll.
  void send_to_client(const MacAddress& client, Bytes msdu);

  std::size_t client_count() const { return clients_.size(); }

  /// The PMK in use (exposed for tests that cross-check key derivation).
  const crypto::Pmk& pmk() const { return pmk_; }

  /// Installs a client as already-established with the given PTK, skipping
  /// the over-the-air handshake. Population-scale scenarios (the Table 2
  /// city) use this; the client side must install the same PTK.
  void install_established_client(const MacAddress& sta,
                                  const crypto::Ptk& ptk);

 private:
  enum class Phase { kAuthenticated, kAssociated, kHandshake, kEstablished };

  struct ClientState {
    Phase phase = Phase::kAuthenticated;
    std::uint16_t aid = 0;
    crypto::Nonce anonce{};
    crypto::Ptk ptk{};
    std::optional<crypto::Wpa2Session> session;
    bool dozing = false;
    std::deque<Bytes> buffered_msdus;
  };

  void on_frame(const frames::Frame& frame, const phy::RxVector& rx);
  void handle_management(const frames::Frame& frame);
  void handle_data(const frames::Frame& frame);
  void handle_ps_poll(const frames::Frame& frame);
  void handle_eapol(const MacAddress& sta, const EapolKey& msg);
  void maybe_deauth_stranger(const MacAddress& sender);
  void send_beacon();
  void deliver_buffered(const MacAddress& client, ClientState& state);
  frames::Beacon beacon_body() const;
  crypto::Nonce make_nonce();

  ApConfig config_;
  RoleContext ctx_;
  ApStats stats_;
  crypto::Pmk pmk_{};
  std::map<MacAddress, ClientState> clients_;
  std::set<MacAddress> blocklist_;
  std::map<MacAddress, TimePoint> last_deauth_;
  std::uint16_t next_aid_ = 1;
  bool beaconing_ = false;
  std::uint64_t beacon_generation_ = 0;  // invalidates stale beacon events
  Rng rng_;
};

}  // namespace politewifi::mac
