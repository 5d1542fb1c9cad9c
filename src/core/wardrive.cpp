#include "core/wardrive.h"

#include <algorithm>

namespace politewifi::core {

namespace {

constexpr MacAddress kAttackerMac{0x02, 0x12, 0x34, 0x56, 0x78, 0x9a};

}  // namespace

WardriveCampaign::WardriveCampaign(sim::Simulation& sim,
                                   const scenario::CityPlan& plan,
                                   WardriveConfig config)
    : sim_(sim), plan_(plan), config_(config) {
  // --- City population (created dormant) -----------------------------------
  nodes_.reserve(plan.devices().size());
  for (const auto& spec : plan.devices()) {
    sim::RadioConfig radio;
    radio.band = phy::Band::k2_4GHz;
    radio.channel = spec.channel;
    radio.position = spec.position;
    radio.power = sim::PowerProfile::mains_powered();

    sim::DeviceInfo info;
    info.name = spec.vendor + (spec.is_ap ? "-ap" : "-sta");
    info.vendor = spec.vendor;
    info.kind = spec.is_ap ? sim::DeviceKind::kAccessPoint
                           : sim::DeviceKind::kClient;

    sim::Device& device = sim_.add_device(info, spec.mac, radio);
    if (spec.is_ap) {
      mac::ApConfig ap;
      ap.ssid = "net-" + spec.mac.to_string().substr(9);
      ap.channel = spec.channel;
      ap.send_beacons = false;  // activated when the vehicle approaches
      ap.fast_keys = true;
      device.make_ap(ap);
    }
    device.radio().set_sleeping(true);
    nodes_.push_back(CityNode{&spec, &device, false, 0});
  }

  // --- Survey rig -------------------------------------------------------------
  sim::RadioConfig rig;
  rig.band = phy::Band::k2_4GHz;
  rig.channel = 6;
  rig.position = plan.route().empty() ? Position{} : plan.route().front();
  rig.power = sim::PowerProfile::mains_powered();
  attacker_ = &sim_.add_device(
      sim::DeviceInfo{.name = "survey-rig",
                      .vendor = "Realtek",
                      .chipset = "RTL8812AU",
                      .kind = sim::DeviceKind::kAttacker},
      kAttackerMac, rig);

  hub_ = std::make_unique<MonitorHub>(attacker_->station());
  scanner_ = std::make_unique<DeviceScanner>(
      *hub_, attacker_->radio(),
      std::vector<MacAddress>{kAttackerMac, config_.injector.spoofed_source});
  scanner_->set_on_discovery([this](const DiscoveredDevice& dev) {
    targets_.add(dev.mac);
  });
  InjectorConfig inj = config_.injector;
  inj.rate = config_.inject_rate;
  injector_ = std::make_unique<FakeFrameInjector>(*attacker_, inj);
  hub_->add_tap(
      [this](const frames::Frame& f, const phy::RxVector&) { on_ack(f); });

  mover_ = std::make_unique<sim::WaypointMover>(
      attacker_->radio(), sim_.scheduler(),
      std::vector<Position>(plan.route()), config_.speed_mps);
}

void WardriveCampaign::activate(CityNode& node) {
  node.active = true;
  node.device->radio().set_sleeping(false);
  if (node.spec->is_ap) {
    node.device->ap()->set_beaconing(true);
  } else {
    node.traffic_generation++;
    schedule_client_traffic(node, node.traffic_generation);
  }
}

void WardriveCampaign::deactivate(CityNode& node) {
  node.active = false;
  node.traffic_generation++;  // stops the traffic loop
  if (node.spec->is_ap) node.device->ap()->set_beaconing(false);
  node.device->radio().set_sleeping(true);
}

void WardriveCampaign::schedule_client_traffic(CityNode& node,
                                               std::uint64_t generation) {
  // Jittered periodic chatter: a null keep-alive to the home AP, or a
  // broadcast probe request for unattached devices.
  const double mean_s = 1.0 / config_.client_traffic_pps;
  const Duration wait =
      from_seconds(sim_.rng().uniform(0.3 * mean_s, 1.7 * mean_s));
  sim_.scheduler().schedule_in(wait, [this, &node, generation] {
    if (!node.active || node.traffic_generation != generation) return;
    mac::Station& station = node.device->station();
    if (!node.spec->home_ap.is_zero()) {
      station.transmit_now(
          frames::make_null_function(node.spec->home_ap, node.spec->mac,
                                     station.next_sequence()),
          phy::kOfdm6);
    } else {
      frames::ProbeRequest probe;
      probe.elements.set_ssid("");  // wildcard scan
      station.transmit_now(
          frames::make_probe_request(node.spec->mac, probe,
                                     station.next_sequence()),
          phy::kOfdm6);
    }
    schedule_client_traffic(node, generation);
  });
}

void WardriveCampaign::hop_tick() {
  if (finished_ || config_.hop_channels.empty()) return;
  hop_index_ = (hop_index_ + 1) % config_.hop_channels.size();
  attacker_->radio().set_channel(config_.hop_channels[hop_index_]);
  sim_.scheduler().schedule_in(config_.hop_dwell, [this] { hop_tick(); });
}

void WardriveCampaign::activation_tick() {
  if (finished_) return;
  const Position rig = attacker_->radio().position();
  for (auto& node : nodes_) {
    const double d = distance(rig, node.spec->position);
    if (!node.active && d <= config_.activation_range_m) {
      activate(node);
    } else if (node.active && d > config_.activation_range_m * 1.2) {
      deactivate(node);
    }
  }
  sim_.scheduler().schedule_in(config_.activation_tick,
                               [this] { activation_tick(); });
}

void WardriveCampaign::injection_tick() {
  if (finished_) return;
  // Round-robin over discovered-but-unverified targets that are fresh,
  // loud enough, and under the attempt cap.
  const auto& devices = scanner_->devices();
  const TimePoint now = sim_.now();
  const std::optional<MacAddress> target = targets_.pick(
      [this](const MacAddress& mac, int attempts) {
        return responded_.count(mac) > 0 ||
               attempts >= config_.max_attempts_per_target;
      },
      [&](const MacAddress& mac) {
        const auto it = devices.find(mac);
        return it != devices.end() &&
               !(it->second.last_rssi_dbm < config_.inject_min_rssi_dbm) &&
               !(now - it->second.last_seen > config_.inject_freshness);
      });
  if (target) {  // one injection per tick
    last_injection_at_ = now;
    last_injection_target_ = *target;
    injector_->inject_one(*target);
  }
  sim_.scheduler().schedule_in(config_.injection_tick,
                               [this] { injection_tick(); });
}

void WardriveCampaign::on_ack(const frames::Frame& frame) {
  if (!frame.fc.is_ack() && !frame.fc.is_cts()) return;
  if (frame.addr1 != config_.injector.spoofed_source) return;
  ++acks_observed_;
  // Attribute to the injection this ACK answers: it must have left within
  // the SIFS + airtime window just before this ACK arrived.
  if (!last_injection_target_.is_zero() &&
      sim_.now() - last_injection_at_ <= microseconds(800)) {
    responded_.insert(last_injection_target_);
  }
}

WardriveReport WardriveCampaign::run() {
  const TimePoint started = sim_.now();
  mover_->start();
  activation_tick();
  injection_tick();
  if (!config_.hop_channels.empty()) {
    attacker_->radio().set_channel(config_.hop_channels.front());
    sim_.scheduler().schedule_in(config_.hop_dwell, [this] { hop_tick(); });
  }

  const TimePoint deadline = started + config_.max_duration;
  while (!mover_->finished() && sim_.now() < deadline) {
    sim_.run_for(seconds(1));
  }
  // Loiter at the route's end to verify late discoveries.
  sim_.run_for(config_.final_loiter);
  finished_ = true;

  WardriveReport report;
  report.elapsed = sim_.now() - started;
  report.distance_m = mover_->distance_travelled();
  report.population = nodes_.size();
  report.discovered = scanner_->devices().size();
  report.discovered_aps = scanner_->count_aps();
  report.discovered_clients = scanner_->count_clients();
  for (const auto& mac : responded_) {
    ++report.responded;
    const auto it = scanner_->devices().find(mac);
    if (it != scanner_->devices().end() && it->second.is_ap) {
      ++report.responded_aps;
    } else {
      ++report.responded_clients;
    }
  }
  report.fake_frames_sent = injector_->stats().frames_injected;
  report.acks_observed = acks_observed_;
  report.ppdu_acquires = sim_.medium().ppdu_pool().stats().acquires;
  report.ppdu_allocations = sim_.medium().ppdu_pool().stats().allocations;
  report.ppdu_bytes_copied = sim_.medium().stats().ppdu_bytes_copied;
  report.client_table = tally_vendors(scanner_->devices(), /*aps=*/false);
  report.ap_table = tally_vendors(scanner_->devices(), /*aps=*/true);
  report.distinct_vendors = [&] {
    std::set<std::string> vendors;
    for (const auto& row : report.client_table.rows) vendors.insert(row.vendor);
    for (const auto& row : report.ap_table.rows) vendors.insert(row.vendor);
    return vendors.size();
  }();
  return report;
}

}  // namespace politewifi::core

namespace politewifi::core {

common::Json WardriveReport::to_json() const {
  common::Json j;
  j["elapsed_s"] = to_seconds(elapsed);
  j["distance_m"] = distance_m;
  j["population"] = population;
  j["discovered"] = discovered;
  j["discovered_aps"] = discovered_aps;
  j["discovered_clients"] = discovered_clients;
  j["responded"] = responded;
  j["responded_aps"] = responded_aps;
  j["responded_clients"] = responded_clients;
  j["response_rate"] = response_rate();
  j["distinct_vendors"] = distinct_vendors;
  j["fake_frames_sent"] = fake_frames_sent;
  j["acks_observed"] = acks_observed;
  j["ppdu_acquires"] = ppdu_acquires;
  j["ppdu_allocations"] = ppdu_allocations;
  j["ppdu_bytes_copied"] = ppdu_bytes_copied;
  j["client_vendors"] = client_table.to_json();
  j["ap_vendors"] = ap_table.to_json();
  return j;
}

}  // namespace politewifi::core
