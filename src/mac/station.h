// The 802.11 low-MAC state machine.
//
// Station implements the receive pipeline and the DCF transmit path of a
// single 802.11 interface:
//
//   RX:  preamble -> FCS check -> addr1 filter -> [AUTO-ACK at SIFS]
//        -> duplicate detection -> upper-layer delivery
//   TX:  DIFS + binary-exponential backoff -> transmit -> ACK timeout
//        -> retransmit (retry bit, CW doubling) up to the retry limit
//
// The RX pipeline has one body, on_frame_received, which takes a decode.
// An intact PPDU arrives already decoded: the medium decodes each
// transmission's shared octets once and hands every intact receiver the
// same result. A damaged copy arrives as raw octets (on_ppdu_received),
// whose FCS is checked before anything is parsed: without a monitor tap
// a bad FCS costs one CRC and a counter, exactly what hardware spends.
//
// The auto-ACK step deliberately happens *before* any notion of
// association, encryption or sender legitimacy — that ordering is the
// entire subject of the paper. See ack_policy.h for the ablation switch.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/mac_address.h"
#include "common/rng.h"
#include "crypto/wpa2.h"
#include "frames/frame.h"
#include "frames/serializer.h"
#include "mac/ack_policy.h"
#include "mac/rate_control.h"
#include "mac/environment.h"
#include "phy/error_model.h"
#include "phy/timing.h"

namespace politewifi::mac {

using frames::Frame;

/// Static configuration of a station.
struct MacConfig {
  MacAddress address;
  phy::Band band = phy::Band::k2_4GHz;
  AckPolicyMode ack_policy = AckPolicyMode::kPoliteHardware;
  /// Decode-latency model consulted by the validating ablation.
  crypto::DecodeLatencyModel decode_model{};
  int retry_limit = phy::kRetryLimit;
  /// Respond to RTS with CTS even when unassociated (all real devices do;
  /// Wang et al. [27] and §2.2 depend on it).
  bool respond_to_rts = true;
  /// Default transmit power.
  double tx_power_dbm = 15.0;
  /// ACK turnaround jitter stddev in nanoseconds (hardware is remarkably
  /// tight; a few hundred ns at most).
  double sifs_jitter_ns = 0.0;
  /// ARF rate adaptation: when set, frames queued via send() use the
  /// controller's current rate (the caller's rate becomes a hint only).
  bool adaptive_rate = false;
  ArfConfig arf{};
  /// RTS/CTS protection: unicast frames larger than this are preceded by
  /// an RTS/CTS handshake (dot11RTSThreshold). Default: never.
  std::size_t rts_threshold = std::size_t(-1);
  /// Duplicate-detection cache capacity (distinct transmitter addresses
  /// remembered). Real NICs keep a handful of entries; a bounded cache
  /// also stops an address-sweeping injector from growing a victim's
  /// memory without bound.
  std::size_t dedup_cache_size = 64;
};

/// Outcome of a Station::send call, delivered via callback.
struct TxResult {
  bool acked = false;
  int transmissions = 1;  // 1 = first attempt succeeded
  TimePoint completed_at{};
};

/// Counters useful to every experiment.
struct MacStats {
  std::uint64_t frames_received = 0;      // FCS-valid, any address
  std::uint64_t fcs_failures = 0;
  std::uint64_t frames_for_us = 0;        // FCS-valid, addr1 == self
  std::uint64_t acks_sent = 0;
  std::uint64_t cts_sent = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t delivered_to_upper = 0;
  std::uint64_t frames_transmitted = 0;   // includes retries
  std::uint64_t retransmissions = 0;
  std::uint64_t tx_success = 0;
  std::uint64_t tx_failures = 0;          // retry limit exceeded
  std::uint64_t acks_received = 0;
  std::uint64_t rts_sent = 0;             // RTS/CTS initiator side
  std::uint64_t cts_received = 0;
  std::uint64_t validations_rejected = 0; // validating mode: fakes dropped
};

class Station {
 public:
  using UpperHandler =
      std::function<void(const Frame&, const phy::RxVector&)>;
  using SnifferHandler =
      std::function<void(const Frame&, const phy::RxVector&)>;
  using SendCallback = std::function<void(const TxResult&)>;

  Station(MacConfig config, MacEnvironment& env, Rng rng);

  const MacConfig& config() const { return config_; }
  const MacAddress& address() const { return config_.address; }
  const MacStats& stats() const { return stats_; }

  /// Upper-layer (MLME/LLC) delivery: FCS-valid, addressed to us (or
  /// broadcast/multicast), deduplicated. Decryption is the caller's job.
  void set_upper_handler(UpperHandler handler) { upper_ = std::move(handler); }

  /// Monitor-mode tap: sees every FCS-valid frame on the channel,
  /// including frames for other stations. This is what the attacker's
  /// sniffer thread uses.
  void set_sniffer(SnifferHandler handler) { sniffer_ = std::move(handler); }

  /// Installs the WPA2 session used by the *validating* ablation to test
  /// frame legitimacy before ACKing. Ignored in polite mode.
  void set_validation_session(crypto::Wpa2Session* session) {
    validation_session_ = session;
  }

  /// Sleep control: while dozing the station neither receives nor
  /// contends. (The radio gates delivery too; this flag keeps the MAC's
  /// own timers honest.)
  void set_dozing(bool dozing);
  bool dozing() const { return dozing_; }

  // --- PHY -> MAC -----------------------------------------------------------

  /// Called by the radio when a PPDU finished arriving intact: `decoded`
  /// is the on-air MPDU's decode (frames::deserialize, FCS verdict
  /// included), possibly shared with every other receiver of the same
  /// transmission; `rx` carries rate/RSSI/CSI metadata.
  void on_frame_received(const frames::DeserializeResult& decoded,
                         const phy::RxVector& rx);

  /// Raw-octet entry, for channel-damaged copies and hand-built octets:
  /// checks the FCS first and parses only when it passes or a sniffer is
  /// attached (a monitor tap shows damaged frames); otherwise the frame
  /// is dropped as an FCS failure unparsed.
  void on_ppdu_received(std::span<const std::uint8_t> raw,
                        const phy::RxVector& rx);

  // --- Upper -> MAC ----------------------------------------------------------

  /// Queues a frame for DCF transmission. Unicast data/management frames
  /// are retried until ACKed or the retry limit is hit; broadcast and
  /// control frames are fire-and-forget. `retry_limit_override` (> 0)
  /// caps total transmissions for this frame only.
  void send(Frame frame, phy::PhyRate rate, SendCallback callback = {},
            int retry_limit_override = 0);

  /// Transmits a frame immediately, skipping DCF — used for control
  /// responses and by the attacker's injector (which does not contend
  /// politely; it is not a polite device).
  void transmit_now(const Frame& frame, phy::PhyRate rate);

  /// Next sequence number for frames originated by this station.
  std::uint16_t next_sequence() { return seq_counter_++ & 0x0FFF; }

  /// Number of frames waiting in the TX queue (excluding in-flight).
  std::size_t tx_queue_depth() const { return tx_queue_.size(); }

  /// The ARF controller (meaningful when config().adaptive_rate).
  const ArfRateController& rate_controller() const { return arf_; }

  /// Occupied duplicate-detection entries (bounded by
  /// config().dedup_cache_size; tests assert the cap holds).
  std::size_t dedup_cache_entries() const { return dedup_cache_.size(); }

 private:
  struct PendingTx {
    Frame frame;
    phy::PhyRate rate;
    SendCallback callback;
    int attempt = 0;      // transmissions so far
    int retry_limit = 0;  // per-frame cap; 0 = use config
  };

  // RX pipeline stages.
  void handle_control_frame(const Frame& frame, const phy::RxVector& rx);
  void schedule_ack(const Frame& frame, const phy::RxVector& rx);
  void schedule_validating_ack(const Frame& frame, const phy::RxVector& rx);
  bool is_duplicate(const Frame& frame);

  // TX pipeline stages.
  void start_contention();
  void attempt_transmission();
  void launch_data_frame();
  void on_ack_timeout();
  void finish_current(bool success);
  Duration contention_delay();

  MacConfig config_;
  MacEnvironment& env_;
  Rng rng_;
  MacStats stats_;

  UpperHandler upper_;
  SnifferHandler sniffer_;
  crypto::Wpa2Session* validation_session_ = nullptr;

  bool dozing_ = false;

  // Duplicate-detection cache: last sequence control per transmitter,
  // capacity-capped LRU. A flat vector with stamp-based eviction beats a
  // hash map here: the working set is a handful of peers, every lookup is
  // a short linear scan, and the memory bound holds under an injector
  // sweeping spoofed source addresses.
  struct DedupEntry {
    MacAddress addr;
    std::uint16_t sc;
    std::uint64_t stamp;  // last-touched tick (LRU eviction key)
  };
  std::vector<DedupEntry> dedup_cache_;
  std::uint64_t dedup_clock_ = 0;

  // DCF state.
  std::deque<PendingTx> tx_queue_;
  std::optional<PendingTx> current_;
  bool contention_pending_ = false;
  std::uint64_t contention_timer_ = 0;
  std::uint64_t ack_timer_ = 0;
  bool awaiting_ack_ = false;
  std::uint64_t cts_timer_ = 0;
  bool awaiting_cts_ = false;
  int cw_ = phy::kCwMin;
  std::uint16_t seq_counter_ = 0;
  ArfRateController arf_;

  // NAV: virtual carrier sense set by overheard Duration fields.
  TimePoint nav_until_{};
};

}  // namespace politewifi::mac
