#include "mac/station.h"

#include <algorithm>

#include "obs/metrics.h"

namespace politewifi::mac {

Station::Station(MacConfig config, MacEnvironment& env, Rng rng)
    : config_(config), env_(env), rng_(rng), arf_(config.arf) {}

void Station::set_dozing(bool dozing) {
  dozing_ = dozing;
  if (!dozing_ && !contention_pending_ && !current_ && !tx_queue_.empty()) {
    start_contention();
  }
}

// ---------------------------------------------------------------------------
// Receive pipeline
// ---------------------------------------------------------------------------

void Station::on_ppdu_received(std::span<const std::uint8_t> raw,
                               const phy::RxVector& rx) {
  if (dozing_) return;  // radio gated off; defensive double-check
  // A bad FCS is all Stage 1 below needs to know, so a damaged copy is
  // never parsed.
  if (!frames::fcs_valid(raw)) {
    ++stats_.fcs_failures;
    return;
  }
  on_frame_received(frames::deserialize(raw), rx);
}

void Station::on_frame_received(const frames::DeserializeResult& decoded,
                                const phy::RxVector& rx) {
  if (dozing_) return;  // radio gated off; defensive double-check

  // Stage 1: FCS. Hardware drops bad frames silently — no ACK, no
  // software visibility, not even to a monitor tap. This is the *only*
  // integrity check that gates the ACK.
  if (!decoded.fcs_ok || !decoded.frame) {
    ++stats_.fcs_failures;
    return;
  }
  const Frame& frame = *decoded.frame;
  if (sniffer_) sniffer_(frame, rx);
  ++stats_.frames_received;

  // NAV bookkeeping: frames not addressed to us reserve the medium via
  // their Duration field (bit 15 clear means a duration in microseconds).
  if (frame.addr1 != config_.address && (frame.duration_id & 0x8000) == 0) {
    const TimePoint until = env_.now() + microseconds(frame.duration_id);
    nav_until_ = std::max(nav_until_, until);
  }

  if (frame.fc.is_control()) {
    handle_control_frame(frame, rx);
    return;
  }

  // Stage 2: receiver address filter.
  const bool for_us = frame.addr1 == config_.address;
  const bool group = frame.addr1.is_group();
  if (!for_us && !group) return;

  if (for_us) {
    ++stats_.frames_for_us;
    // Stage 3: the ACK decision. In polite (real-hardware) mode this is
    // unconditional — the MAC has checked exactly two things: the FCS and
    // addr1. Sender identity, encryption validity, association state,
    // blocklists: none of it has been (or could have been) examined yet.
    switch (config_.ack_policy) {
      case AckPolicyMode::kPoliteHardware:
        schedule_ack(frame, rx);
        break;
      case AckPolicyMode::kValidatingMac:
        schedule_validating_ack(frame, rx);
        break;
    }
  }

  // Stage 4: duplicate detection (ACK was sent regardless — a duplicate
  // means our previous ACK was lost, so the peer *needs* another one).
  if (for_us && is_duplicate(frame)) {
    ++stats_.duplicates_dropped;
    return;
  }

  // Stage 5: upper-layer delivery.
  if (upper_) {
    ++stats_.delivered_to_upper;
    upper_(frame, rx);
  }
}

void Station::handle_control_frame(const Frame& frame,
                                   const phy::RxVector& rx) {
  if (frame.addr1 != config_.address) return;

  if (frame.fc.is_ack()) {
    ++stats_.acks_received;
    if (awaiting_ack_) {
      env_.cancel(ack_timer_);
      awaiting_ack_ = false;
      finish_current(true);
    }
    return;
  }

  if (frame.fc.is_cts() && awaiting_cts_) {
    // Our RTS was answered: the channel is reserved, send the data one
    // SIFS after the CTS.
    ++stats_.cts_received;
    env_.cancel(cts_timer_);
    awaiting_cts_ = false;
    env_.schedule(phy::sifs(config_.band), [this] { launch_data_frame(); });
    return;
  }

  if (frame.fc.is_rts() && config_.respond_to_rts) {
    // CTS one SIFS later, continuing the NAV the RTS requested. RTS/CTS
    // cannot be encrypted (every third party must parse them to honour
    // the reservation), so even the validating ablation responds — the
    // paper's checkmate argument in §2.2.
    const std::uint16_t cts_airtime_us = 32;  // CTS at 24 Mb/s, rounded up
    const std::uint16_t remaining =
        frame.duration_id > cts_airtime_us + 10
            ? static_cast<std::uint16_t>(frame.duration_id - cts_airtime_us - 10)
            : 0;
    const Frame cts = frames::make_cts(frame.addr2, remaining);
    const phy::PhyRate rate = phy::control_response_rate(rx.rate);
    env_.schedule(phy::sifs(config_.band), [this, cts, rate] {
      ++stats_.cts_sent;
      env_.transmit(cts, {.rate = rate, .power_dbm = config_.tx_power_dbm});
    });
    return;
  }

  if (frame.fc.is_subtype(frames::ControlSubtype::kPsPoll) && upper_) {
    // PS-Poll is handled by the AP role (it must release one buffered
    // frame); it is also ACKed like a data frame per the standard. Model
    // the ACK here, delivery above.
    schedule_ack(frame, rx);
    ++stats_.delivered_to_upper;
    upper_(frame, rx);
    return;
  }
}

void Station::schedule_ack(const Frame& frame, const phy::RxVector& rx) {
  // The ACK goes to whatever addr2 claims — a spoofed address is ACKed
  // just the same (Figure 2's aa:bb:bb:bb:bb:bb).
  const Frame ack = frames::make_ack(frame.addr2);
  const phy::PhyRate rate = phy::control_response_rate(rx.rate);
  Duration delay = phy::sifs(config_.band);
  if (config_.sifs_jitter_ns > 0.0) {
    const double jitter = std::abs(rng_.gaussian(0.0, config_.sifs_jitter_ns));
    delay += nanoseconds(static_cast<std::int64_t>(jitter));
  }
  env_.schedule(delay, [this, ack, rate] {
    ++stats_.acks_sent;
    PW_COUNT(kMacAcksSent);
    env_.transmit(ack, {.rate = rate, .power_dbm = config_.tx_power_dbm});
  });
}

void Station::schedule_validating_ack(const Frame& frame,
                                      const phy::RxVector& rx) {
  // The hypothetical receiver decrypts before ACKing. Decode latency is
  // charged even for frames that turn out to be garbage — the receiver
  // cannot know until it has tried.
  const double decode_us = config_.decode_model.decode_us(frame.size_bytes());
  const Duration delay = std::chrono::duration_cast<Duration>(
      std::chrono::duration<double, std::micro>(decode_us));

  // Validation: a protected frame must decrypt + MIC-check against the
  // session; an unprotected data/management frame from an unknown party
  // is exactly the paper's fake frame and gets rejected.
  bool valid = false;
  if (frame.fc.protected_frame && validation_session_ != nullptr) {
    Frame copy = frame;
    valid = validation_session_->unprotect(copy);
  }
  if (!valid) {
    ++stats_.validations_rejected;
    return;  // fake frame: correctly not ACKed... after wasting decode_us
  }

  const Frame ack = frames::make_ack(frame.addr2);
  const phy::PhyRate rate = phy::control_response_rate(rx.rate);
  env_.schedule(delay, [this, ack, rate] {
    ++stats_.acks_sent;
    PW_COUNT(kMacAcksSent);
    env_.transmit(ack, {.rate = rate, .power_dbm = config_.tx_power_dbm});
  });
}

bool Station::is_duplicate(const Frame& frame) {
  if (!frame.has_sequence_control()) return false;
  const std::uint16_t sc = frame.seq.pack();
  const std::uint64_t now = ++dedup_clock_;
  for (DedupEntry& e : dedup_cache_) {
    if (e.addr != frame.addr2) continue;
    const bool dup = e.sc == sc && frame.fc.retry;
    e.sc = sc;
    e.stamp = now;
    return dup;
  }
  if (dedup_cache_.size() < config_.dedup_cache_size) {
    dedup_cache_.push_back(DedupEntry{frame.addr2, sc, now});
    return false;
  }
  // Full: evict the least-recently-touched transmitter. Forgetting an old
  // peer only risks one spurious non-duplicate delivery, exactly like a
  // real NIC's bounded cache.
  DedupEntry* lru = &dedup_cache_.front();
  for (DedupEntry& e : dedup_cache_) {
    if (e.stamp < lru->stamp) lru = &e;
  }
  PW_COUNT(kMacDedupEvictions);
  *lru = DedupEntry{frame.addr2, sc, now};
  return false;
}

// ---------------------------------------------------------------------------
// Transmit pipeline (DCF)
// ---------------------------------------------------------------------------

void Station::send(Frame frame, phy::PhyRate rate, SendCallback callback,
                   int retry_limit_override) {
  tx_queue_.push_back(PendingTx{std::move(frame), rate, std::move(callback),
                                0, retry_limit_override});
  if (!current_ && !contention_pending_ && !dozing_) start_contention();
}

void Station::transmit_now(const Frame& frame, phy::PhyRate rate) {
  ++stats_.frames_transmitted;
  env_.transmit(frame, {.rate = rate, .power_dbm = config_.tx_power_dbm});
}

Duration Station::contention_delay() {
  const int slots = static_cast<int>(rng_.uniform_int(0, cw_));
  return phy::difs(config_.band) + slots * phy::slot_time(config_.band);
}

void Station::start_contention() {
  if (tx_queue_.empty() || current_ || dozing_) return;
  current_ = std::move(tx_queue_.front());
  tx_queue_.pop_front();
  contention_pending_ = true;
  contention_timer_ =
      env_.schedule(contention_delay(), [this] { attempt_transmission(); });
}

void Station::attempt_transmission() {
  contention_pending_ = false;
  if (!current_) return;

  // Physical or virtual carrier busy: redraw the backoff. (Real DCF
  // freezes and resumes the counter; redrawing is a standard simulator
  // simplification with the same long-run behaviour.)
  if (env_.medium_busy() || env_.now() < nav_until_) {
    contention_pending_ = true;
    contention_timer_ =
        env_.schedule(contention_delay(), [this] { attempt_transmission(); });
    return;
  }

  PendingTx& tx = *current_;
  ++tx.attempt;
  if (tx.attempt > 1) {
    tx.frame.fc.retry = true;
    ++stats_.retransmissions;
    PW_COUNT(kMacRetries);
  }
  if (config_.adaptive_rate) tx.rate = arf_.current();

  // RTS/CTS protection for large unicast frames (dot11RTSThreshold).
  const bool protect_with_rts = !tx.frame.addr1.is_group() &&
                                !tx.frame.fc.is_control() &&
                                tx.frame.size_bytes() > config_.rts_threshold;
  if (protect_with_rts) {
    const phy::PhyRate ctl_rate = phy::control_response_rate(tx.rate);
    const Duration cts_air = phy::ppdu_airtime(ctl_rate, 14);
    const Duration data_air = phy::ppdu_airtime(tx.rate, tx.frame.size_bytes());
    const Duration ack_air = phy::ppdu_airtime(ctl_rate, 14);
    const double nav_us = to_microseconds(3 * phy::sifs(config_.band) +
                                          cts_air + data_air + ack_air);
    const frames::Frame rts = frames::make_rts(
        tx.frame.addr1, config_.address,
        static_cast<std::uint16_t>(std::min(nav_us + 1.0, 32767.0)));
    ++stats_.frames_transmitted;
    ++stats_.rts_sent;
    env_.transmit(rts, {.rate = ctl_rate, .power_dbm = config_.tx_power_dbm});
    awaiting_cts_ = true;
    const Duration rts_air = phy::ppdu_airtime(ctl_rate, 20);
    cts_timer_ = env_.schedule(rts_air + phy::ack_timeout(config_.band),
                               [this] {
                                 awaiting_cts_ = false;
                                 on_ack_timeout();  // same recovery path
                               });
    return;
  }

  launch_data_frame();
}

void Station::launch_data_frame() {
  if (!current_) return;
  PendingTx& tx = *current_;
  ++stats_.frames_transmitted;
  PW_HIST(kMacTxOctets, tx.frame.size_bytes());
  env_.transmit(tx.frame, {.rate = tx.rate, .power_dbm = config_.tx_power_dbm});

  const bool needs_ack = !tx.frame.addr1.is_group() && !tx.frame.fc.is_ack() &&
                         !tx.frame.fc.is_cts();
  const Duration airtime = phy::ppdu_airtime(tx.rate, tx.frame.size_bytes());
  if (needs_ack) {
    awaiting_ack_ = true;
    ack_timer_ = env_.schedule(airtime + phy::ack_timeout(config_.band),
                               [this] { on_ack_timeout(); });
  } else {
    // Fire-and-forget completes when the PPDU ends.
    env_.schedule(airtime, [this] { finish_current(true); });
  }
}

void Station::on_ack_timeout() {
  awaiting_ack_ = false;
  if (!current_) return;
  if (config_.adaptive_rate) arf_.on_failure();

  const int limit = current_->retry_limit > 0 ? current_->retry_limit
                                              : config_.retry_limit;
  if (current_->attempt >= limit) {
    finish_current(false);
    return;
  }
  // Binary exponential backoff.
  cw_ = std::min(cw_ * 2 + 1, phy::kCwMax);
  contention_pending_ = true;
  contention_timer_ =
      env_.schedule(contention_delay(), [this] { attempt_transmission(); });
}

void Station::finish_current(bool success) {
  if (!current_) return;
  TxResult result{.acked = success,
                  .transmissions = current_->attempt,
                  .completed_at = env_.now()};
  // Feed ARF: a completed exchange that ended in an ACK is a success for
  // the rate used (per-attempt failures were fed from the timeouts).
  if (config_.adaptive_rate && success && !current_->frame.addr1.is_group()) {
    arf_.on_success();
  }
  if (success) {
    ++stats_.tx_success;
  } else {
    ++stats_.tx_failures;
  }
  cw_ = phy::kCwMin;
  auto callback = std::move(current_->callback);
  current_.reset();
  if (callback) callback(result);
  if (!tx_queue_.empty() && !dozing_) start_contention();
}

}  // namespace politewifi::mac
