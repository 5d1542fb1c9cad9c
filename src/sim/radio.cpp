#include "sim/radio.h"

#include "common/check.h"

namespace politewifi::sim {

Radio::Radio(Medium& medium, Scheduler& scheduler, RadioConfig config)
    : medium_(medium),
      scheduler_(scheduler),
      config_(config),
      position_(config.position),
      energy_(config.power, scheduler.now()),
      id_(medium.allocate_radio_id()) {
  PW_CHECK(&scheduler == &medium.scheduler(),
           "a radio runs on its medium's scheduler");
  energy_.set_timeline_ids(medium.timeline_group(),
                           static_cast<std::int64_t>(id_));
  energy_.set_state(RadioState::kIdle, scheduler_.now());
  medium_.attach(this);
}

Radio::~Radio() { medium_.detach(this); }

void Radio::set_position(const Position& p) {
  if (position_ == p) return;
  position_ = p;
  ++geometry_version_;
  medium_.on_radio_moved(*this);
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
  const TimePoint now = scheduler_.now();
  if (sleeping_) {
    rx_nesting_ = 0;
    energy_.set_state(RadioState::kSleep, now);
  } else {
    energy_.set_state(RadioState::kIdle, now);
  }
}

}  // namespace politewifi::sim
