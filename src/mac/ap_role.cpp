#include "mac/ap_role.h"

#include <algorithm>

namespace politewifi::mac {

ApRole::ApRole(ApConfig config, RoleContext ctx)
    : config_(std::move(config)), ctx_(ctx), rng_(ctx.rng) {
  if (!config_.fast_keys) {
    pmk_ = crypto::derive_pmk(config_.passphrase, config_.ssid);
  }
}

void ApRole::start() {
  ctx_.station->set_upper_handler(
      [this](const frames::Frame& f, const phy::RxVector& rx) {
        on_frame(f, rx);
      });
  if (config_.send_beacons) set_beaconing(true);
}

void ApRole::set_beaconing(bool on) {
  if (beaconing_ == on) return;
  beaconing_ = on;
  ++beacon_generation_;  // any in-flight beacon event becomes stale
  if (on) {
    // Jitter the first beacon so co-activated APs don't synchronize.
    const Duration offset = microseconds(static_cast<std::int64_t>(
        rng_.uniform(0.0, to_microseconds(config_.beacon_interval))));
    const std::uint64_t gen = beacon_generation_;
    ctx_.env->schedule(offset, [this, gen] {
      if (gen == beacon_generation_) send_beacon();
    });
  }
}

frames::Beacon ApRole::beacon_body() const {
  frames::Beacon b;
  b.timestamp_us = static_cast<std::uint64_t>(
      to_microseconds(ctx_.env->now().time_since_epoch()));
  b.beacon_interval = static_cast<std::uint16_t>(
      to_microseconds(config_.beacon_interval) / 1024.0);
  b.capability.ess = true;
  b.capability.privacy = true;
  b.elements.set_ssid(config_.ssid);
  b.elements.set_supported_rates({0x8c, 0x12, 0x98, 0x24, 0xb0, 0x48, 0x60, 0x6c});
  b.elements.set_channel(static_cast<std::uint8_t>(config_.channel));
  b.elements.set_rsn_wpa2_psk();
  return b;
}

void ApRole::send_beacon() {
  if (!beaconing_) return;
  frames::Beacon b = beacon_body();
  frames::ElementList::Tim tim;
  for (const auto& [mac, state] : clients_) {
    if (state.dozing && !state.buffered_msdus.empty()) {
      tim.buffered_aids.push_back(state.aid);
    }
  }
  b.elements.set_tim(tim);

  frames::Frame beacon =
      frames::make_beacon(bssid(), b, ctx_.station->next_sequence());
  ctx_.station->send(std::move(beacon), config_.mgmt_rate);
  ++stats_.beacons_sent;
  const std::uint64_t gen = beacon_generation_;
  ctx_.env->schedule(config_.beacon_interval, [this, gen] {
    if (gen == beacon_generation_) send_beacon();
  });
}

void ApRole::on_frame(const frames::Frame& frame, const phy::RxVector&) {
  const MacAddress sender = frame.addr2;

  // Software blocklist: §2.1's failed countermeasure. The drop happens
  // here, in software — the ACK already happened in the low-MAC.
  if (is_blocked(sender)) {
    ++stats_.software_drops_blocked;
    return;
  }

  if (frame.fc.is_management()) {
    handle_management(frame);
  } else if (frame.fc.is_data()) {
    handle_data(frame);
  } else if (frame.fc.is_subtype(frames::ControlSubtype::kPsPoll)) {
    handle_ps_poll(frame);
  }
}

void ApRole::handle_management(const frames::Frame& frame) {
  using frames::ManagementSubtype;
  const MacAddress sta = frame.addr2;

  if (frame.fc.is_subtype(ManagementSubtype::kProbeRequest)) {
    const auto req = frames::ProbeRequest::from_body(frame.body);
    if (!req) return;
    const auto requested = req->elements.ssid();
    if (requested && !requested->empty() && *requested != config_.ssid) return;
    ctx_.station->send(
        frames::make_probe_response(sta, bssid(), beacon_body(),
                                    ctx_.station->next_sequence()),
        config_.mgmt_rate);
    ++stats_.probe_responses;
    return;
  }

  if (frame.fc.is_subtype(ManagementSubtype::kAuthentication)) {
    const auto auth = frames::Authentication::from_body(frame.body);
    if (!auth || auth->algorithm != 0 || auth->sequence != 1) return;
    clients_[sta];  // phase kAuthenticated
    ctx_.station->send(
        frames::make_authentication(sta, bssid(), bssid(),
                                    {.algorithm = 0, .sequence = 2, .status = 0},
                                    ctx_.station->next_sequence()),
        config_.mgmt_rate);
    return;
  }

  if (frame.fc.is_subtype(ManagementSubtype::kAssocRequest)) {
    auto it = clients_.find(sta);
    if (it == clients_.end()) return;  // must authenticate first
    const auto req = frames::AssociationRequest::from_body(frame.body);
    if (!req) return;
    ClientState& state = it->second;
    if (state.aid == 0) state.aid = next_aid_++;
    state.phase = Phase::kAssociated;
    ++stats_.associations;

    frames::AssociationResponse resp;
    resp.capability.privacy = true;
    resp.status = 0;
    resp.aid = state.aid;
    ctx_.station->send(frames::make_assoc_response(
                           sta, bssid(), resp, ctx_.station->next_sequence()),
                       config_.mgmt_rate);

    // Kick off the 4-way handshake: message 1 carries the ANonce.
    state.anonce = make_nonce();
    state.phase = Phase::kHandshake;
    EapolKey msg1;
    msg1.message_number = 1;
    msg1.nonce = state.anonce;
    ctx_.station->send(frames::make_data_from_ds(bssid(), bssid(), sta,
                                                 msg1.serialize(),
                                                 ctx_.station->next_sequence()),
                       config_.data_rate);
    return;
  }

  if (frame.fc.is_subtype(ManagementSubtype::kDeauthentication) ||
      frame.fc.is_subtype(ManagementSubtype::kDisassociation)) {
    clients_.erase(sta);
    return;
  }
}

void ApRole::handle_data(const frames::Frame& frame) {
  const MacAddress sta = frame.addr2;
  auto it = clients_.find(sta);

  // Track the PM bit of genuine clients (power-save signalling).
  if (it != clients_.end() && it->second.phase == Phase::kEstablished) {
    const bool was_dozing = it->second.dozing;
    it->second.dozing = frame.fc.power_management;
    if (was_dozing && !it->second.dozing) deliver_buffered(sta, it->second);
  }

  // EAPOL handshake frames are unencrypted data.
  if (!frame.fc.protected_frame && EapolKey::is_eapol(frame.body)) {
    if (const auto msg = EapolKey::deserialize(frame.body); msg && it != clients_.end()) {
      handle_eapol(sta, *msg);
    }
    return;
  }

  if (it == clients_.end() || it->second.phase != Phase::kEstablished) {
    // Class-3 frame from a non-associated STA — the attacker's fake
    // frames land here. Software notices something is wrong...
    ++stats_.software_drops_unknown;
    if (config_.deauth_unknown_senders) maybe_deauth_stranger(sta);
    return;
  }

  ClientState& state = it->second;
  if (frame.fc.protected_frame) {
    frames::Frame copy = frame;
    if (state.session && state.session->unprotect(copy)) {
      ++stats_.msdus_received;
      // A real AP would now bridge the MSDU; the simulator's workloads
      // are attack-focused, so counting delivery suffices.
    } else {
      ++stats_.decrypt_failures;
    }
    return;
  }
  // Unprotected data from an established client (e.g. null keep-alives):
  // nothing to deliver.
}

void ApRole::maybe_deauth_stranger(const MacAddress& sender) {
  const TimePoint now = ctx_.env->now();
  const auto it = last_deauth_.find(sender);
  if (it != last_deauth_.end() &&
      now - it->second < config_.deauth_min_interval) {
    return;
  }
  last_deauth_[sender] = now;
  // Figure 3: the paper's capture shows deauth *triplets* with the same
  // sequence number. That is ordinary MAC retransmission: the "client"
  // being deauthed is a spoofed address that never ACKs, so the unicast
  // deauth is retried until the (per-frame) retry limit — deauth_burst —
  // is exhausted. We simply send one deauth through the DCF path and let
  // the retry machinery produce the burst.
  frames::Frame deauth = frames::make_deauth(
      sender, bssid(), bssid(),
      frames::ReasonCode::kClass3FrameFromNonassocSta,
      ctx_.station->next_sequence());
  ctx_.station->send(std::move(deauth), config_.mgmt_rate, {},
                     config_.deauth_burst);
  ++stats_.deauths_sent;
}

void ApRole::handle_eapol(const MacAddress& sta, const EapolKey& msg) {
  auto it = clients_.find(sta);
  if (it == clients_.end()) return;
  ClientState& state = it->second;

  if (msg.message_number == 2 && state.phase == Phase::kHandshake) {
    // Derive the PTK from both nonces; verify the supplicant's MIC.
    state.ptk = config_.fast_keys
                    ? crypto::derive_fast_ptk(bssid(), sta)
                    : crypto::derive_ptk(pmk_, bssid(), sta, state.anonce,
                                         msg.nonce);
    if (!msg.verify_mic(state.ptk.kck)) return;  // wrong passphrase

    EapolKey msg3;
    msg3.message_number = 3;
    msg3.nonce = state.anonce;
    msg3.install_flag = true;
    msg3.mic = EapolKey::compute_mic(state.ptk.kck, msg3);
    ctx_.station->send(frames::make_data_from_ds(bssid(), bssid(), sta,
                                                 msg3.serialize(),
                                                 ctx_.station->next_sequence()),
                       config_.data_rate);
    return;
  }

  if (msg.message_number == 4 && state.phase == Phase::kHandshake) {
    if (!msg.verify_mic(state.ptk.kck)) return;
    state.session.emplace(state.ptk);
    state.phase = Phase::kEstablished;
    ++stats_.handshakes_completed;
    return;
  }
}

void ApRole::handle_ps_poll(const frames::Frame& frame) {
  auto it = clients_.find(frame.addr2);
  if (it == clients_.end()) return;
  deliver_buffered(frame.addr2, it->second);
}

void ApRole::deliver_buffered(const MacAddress& client, ClientState& state) {
  while (!state.buffered_msdus.empty()) {
    Bytes msdu = std::move(state.buffered_msdus.front());
    state.buffered_msdus.pop_front();
    frames::Frame f = frames::make_data_from_ds(
        bssid(), bssid(), client, std::move(msdu),
        ctx_.station->next_sequence());
    f.fc.more_data = !state.buffered_msdus.empty();
    if (state.session) state.session->protect(f);
    ctx_.station->send(std::move(f), config_.data_rate);
    ++stats_.ps_delivered;
  }
}

void ApRole::send_to_client(const MacAddress& client, Bytes msdu) {
  auto it = clients_.find(client);
  if (it == clients_.end() || it->second.phase != Phase::kEstablished) return;
  ClientState& state = it->second;
  if (state.dozing) {
    state.buffered_msdus.push_back(std::move(msdu));
    ++stats_.ps_buffered;
    return;
  }
  frames::Frame f = frames::make_data_from_ds(
      bssid(), bssid(), client, std::move(msdu), ctx_.station->next_sequence());
  if (state.session) state.session->protect(f);
  ctx_.station->send(std::move(f), config_.data_rate);
}

void ApRole::install_established_client(const MacAddress& sta,
                                        const crypto::Ptk& ptk) {
  ClientState& state = clients_[sta];
  if (state.aid == 0) state.aid = next_aid_++;
  state.ptk = ptk;
  state.session.emplace(ptk);
  state.phase = Phase::kEstablished;
  ++stats_.associations;
  ++stats_.handshakes_completed;
}

crypto::Nonce ApRole::make_nonce() {
  crypto::Nonce n;
  for (auto& b : n) b = static_cast<std::uint8_t>(rng_.uniform_int(0, 255));
  return n;
}

}  // namespace politewifi::mac
