#include "sim/radio.h"

namespace politewifi::sim {

Radio::Radio(Medium& medium, Scheduler& scheduler, RadioConfig config)
    : medium_(medium),
      scheduler_(&scheduler),
      config_(config),
      position_(config.position),
      rf_position_(config.position),
      energy_(config.power, scheduler.now()),
      id_(medium.allocate_radio_id()) {
  energy_.set_timeline_ids(medium.timeline_group(),
                           static_cast<std::int64_t>(id_));
  energy_.set_state(RadioState::kIdle, scheduler_->now());
  medium_.attach(this);  // homes the radio on its shard (rebinds scheduler_)
}

Radio::~Radio() { medium_.detach(this); }

void Radio::set_position(const Position& p) {
  if (position_ == p) return;
  position_ = p;
  // Sub-quantum drift keeps the RF anchor (and with it every cached link
  // budget involving this radio) valid; quantum 0 is the exact path.
  const double quantum = medium_.config().position_quantum_m;
  if (quantum > 0.0 && distance(p, rf_position_) <= quantum) return;
  rf_position_ = p;
  ++geometry_version_;
  medium_.on_radio_moved(*this);
}

void Radio::update_shard_horizon(double speed_mps) {
  medium_.refresh_shard_horizon(*this, speed_mps);
}

void Radio::set_channel(int channel) {
  if (config_.channel == channel) return;
  config_.channel = channel;
  ++geometry_version_;  // frequency changed: link budgets are stale
  medium_.on_radio_retuned(*this);
}

void Radio::transmit(const frames::Frame& frame, const phy::TxVector& tx) {
  // A sleeping radio cannot transmit; the roles wake it first. Guard
  // defensively rather than assert: a race between a doze decision and a
  // queued control response resolves as "the frame never went out".
  if (sleeping_) return;
  if (medium_.oracle_) {
    // The reference oracle serializes every frame from scratch.
    frames::PpduRef ppdu = medium_.ppdu_pool().acquire();
    frames::serialize_into(frame, ppdu.mutable_octets());
    medium_.transmit(*this, std::move(ppdu), tx);
    return;
  }
  medium_.transmit(*this, tx_templates_.render(frame, medium_.ppdu_pool()),
                   tx);
}

void Radio::set_sleeping(bool sleeping) {
  if (sleeping_ == sleeping) return;
  sleeping_ = sleeping;
  const TimePoint now = scheduler_->now();
  if (sleeping_) {
    rx_nesting_ = 0;
    energy_.set_state(RadioState::kSleep, now);
  } else {
    energy_.set_state(RadioState::kIdle, now);
  }
}

}  // namespace politewifi::sim
