// A device's radio: the glue between MAC station, medium and energy meter.
//
// Radio implements mac::MacEnvironment, so the Station's timing decisions
// (SIFS ACKs, DCF backoff, timeouts) execute on the simulator's scheduler,
// and every transmit/receive/sleep transition is charged to the energy
// meter — which is how Figure 6 falls out of the mechanics instead of
// being hard-coded.
#pragma once

#include <string>

#include "common/check.h"
#include "frames/frame_template.h"
#include "frames/serializer.h"
#include "mac/environment.h"
#include "mac/station.h"
#include "sim/energy_model.h"
#include "sim/medium.h"

namespace politewifi::sim {

struct RadioConfig {
  phy::Band band = phy::Band::k2_4GHz;
  int channel = 6;
  Position position{};
  PowerProfile power = PowerProfile::mains_powered();
  /// Capture CSI on reception (costs CPU; enabled on attacker/sensor
  /// radios, off for the thousands of survey victims).
  bool capture_csi = false;
};

class Radio final : public mac::MacEnvironment {
 public:
  Radio(Medium& medium, Scheduler& scheduler, RadioConfig config);
  ~Radio() override;

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  // --- mac::MacEnvironment ---------------------------------------------------

  TimePoint now() const override { return scheduler_->now(); }
  /// Timer ids carry the issuing shard in the top byte so cancel() can
  /// route to the scheduler that actually holds the event even after the
  /// radio migrated shards (each shard's slot/generation space is
  /// private, so a raw id from shard A could falsely hit a live event on
  /// shard B). With shards = 1 the tag is 0 and ids are bit-identical to
  /// the untagged ones.
  std::uint64_t schedule(Duration delay, SmallFn fn) override {
    const std::uint64_t raw = scheduler_->schedule_in(delay, std::move(fn));
    PW_DCHECK(raw >> kShardIdShift == 0,
              "event id overflows into the shard tag byte");
    return raw | std::uint64_t{shard_} << kShardIdShift;
  }
  void cancel(std::uint64_t timer_id) override {
    if (timer_id == 0) return;
    medium_.shard_scheduler(timer_id >> kShardIdShift)
        .cancel(timer_id & ((std::uint64_t{1} << kShardIdShift) - 1));
  }
  void transmit(const frames::Frame& frame, const phy::TxVector& tx) override;
  bool medium_busy() const override { return medium_.busy_for(*this); }

  // --- Medium-facing ----------------------------------------------------------

  /// A station is attached and the radio is awake: what deliver() hands
  /// over reaches a MAC. The medium delivers (and decodes) only then.
  bool mac_listening() const { return station_ != nullptr && !sleeping_; }

  /// Called by the medium when a PPDU finished arriving at a listening
  /// radio: an intact PPDU as its transmission's shared decode, a
  /// channel-damaged copy as its own octets (the station checks their
  /// FCS before parsing anything).
  void deliver(const frames::DeserializeResult& intact,
               const phy::RxVector& rx) {
    station_->on_frame_received(intact, rx);
  }
  void deliver(std::span<const std::uint8_t> damaged,
               const phy::RxVector& rx) {
    station_->on_ppdu_received(damaged, rx);
  }

  bool transmitting_during(TimePoint start, TimePoint end) const {
    return tx_since_ < end && tx_until_ > start;
  }

  // --- Host-facing -------------------------------------------------------------

  void set_station(mac::Station* station) { station_ = station; }
  mac::Station* station() { return station_; }

  /// Doze control (roles call this through RoleContext::set_radio_sleep).
  void set_sleeping(bool sleeping);
  bool sleeping() const { return sleeping_; }

  const RadioConfig& config() const { return config_; }
  const Position& position() const { return position_; }

  /// Moves the radio. Updates the medium's spatial index and invalidates
  /// the cached link budgets involving this radio.
  void set_position(const Position& p);

  /// Tells the medium how fast this radio moves so it can compute the
  /// cell-exit horizon: the earliest time the radio could leave its
  /// current shard's super-cell. Shard-migration checks are skipped
  /// until then (a pure optimization — any assignment is byte-identical
  /// under the shared-timebase merge, see DESIGN.md).
  void update_shard_horizon(double speed_mps);

  /// Retunes the radio (survey rigs hop channels). Takes effect for the
  /// next PPDU; an in-flight reception on the old channel is lost, which
  /// is exactly what real retuning does.
  void set_channel(int channel);

  double frequency_hz() const {
    return phy::channel_frequency_hz(config_.band, config_.channel);
  }

  EnergyMeter& energy() { return energy_; }
  const EnergyMeter& energy() const { return energy_; }

  /// Stable identity for deterministic per-link randomness. Allocated by
  /// the owning medium in attach order, so independent simulations (e.g.
  /// sweep-runner workers) draw identical per-link randomness no matter
  /// how many run concurrently in one process.
  std::uint64_t id() const { return id_; }

  /// This radio's outgoing frame-template cache (introspection: the
  /// benchmark and tests read its hit/patch counters).
  const frames::FrameTemplateCache& tx_template_cache() const {
    return tx_templates_;
  }

 private:
  friend class Medium;
  friend struct MediumTestPeer;  // corruption-injection tests

  static constexpr int kShardIdShift = 56;

  Medium& medium_;
  /// The scheduler of the shard this radio is homed on; rebound by the
  /// medium when the radio migrates (all shard schedulers share one
  /// timebase, so now() is shard-independent).
  Scheduler* scheduler_;
  RadioConfig config_;
  Position position_;
  mac::Station* station_ = nullptr;
  EnergyMeter energy_;
  /// Serialize-once/patch-seq cache for this radio's outgoing frames
  /// (bypassed only by the medium's reference oracle).
  frames::FrameTemplateCache tx_templates_;
  bool sleeping_ = false;
  TimePoint tx_since_{}, tx_until_{};
  std::uint64_t rx_nesting_ = 0;  // concurrent receptions (for energy state)
  std::uint64_t id_;

  // --- Medium bookkeeping (written by Medium; see medium.cpp) ---------------
  ReceiverState rx_state_;          // in-flight receptions at this radio
  /// Cached tx fan-out: static detectable receivers in attach order.
  /// Valid while nb_epoch_ matches the medium's static-geometry epoch,
  /// nb_self_version_ matches geometry_version_, and the transmit power
  /// does not exceed nb_power_dbm_.
  std::vector<NeighborEntry> neighbors_;
  /// Struct-of-arrays companions to neighbors_: per-entry received power at nb_power_dbm_, its linear milliwatt
  /// value, the propagation delay at the entry's (static) geometry, and
  /// the arrival-order permutation (entry indices sorted by propagation
  /// delay, fan-out order breaking ties). Rebuilt with neighbors_; a
  /// repeated fan-out at the list's power replays these as pure loads —
  /// no pow, no sqrt, no per-record sort.
  std::vector<double> nb_rx_dbm_;
  std::vector<double> nb_rx_mw_;
  std::vector<std::int64_t> nb_prop_ns_;
  std::vector<std::uint32_t> nb_arrival_rank_;
  std::uint64_t nb_epoch_ = 0;  // 0 = never built
  std::uint32_t nb_self_version_ = 0;
  double nb_power_dbm_ = 0.0;
  /// Set on the first move/retune after attach; volatile radios are
  /// excluded from neighbor lists and checked per transmission.
  bool volatile_ = false;
  std::uint64_t attach_order_ = 0;  // brute-force iteration order
  std::uint64_t grid_chan_ = 0;     // (band,channel) key while indexed
  std::uint64_t grid_cell_ = 0;     // grid cell key while indexed
  bool grid_indexed_ = false;
  /// Bumped on every move/retune; tags cached link budgets.
  std::uint32_t geometry_version_ = 0;
  /// Shard (super-cell) this radio is homed on; 0 when unsharded.
  std::uint32_t shard_ = 0;
  /// Cell-exit horizon: migration checks are skipped before this time.
  TimePoint shard_check_after_ = kSimStart;
};

}  // namespace politewifi::sim
