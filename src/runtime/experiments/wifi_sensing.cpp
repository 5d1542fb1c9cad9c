// The opportunity (§4.3): whole-home WiFi sensing with software on ONE
// device.
//
// An IoT hub streams fake frames at the unmodified WiFi devices already
// scattered through a home — a smart TV, a thermostat — and turns their
// ACKs into sensors: per-zone occupancy, motion events, and even a
// sleeping occupant's breathing rate. The sensed devices run stock
// firmware; Polite WiFi makes them all involuntary transmitters at
// whatever packet rate the sensing needs.
#include <cstdio>

#include "core/csi_collector.h"
#include "runtime/experiments/all.h"
#include "runtime/registry.h"
#include "runtime/run_context.h"
#include "scenario/sensing_scene.h"
#include "sensing/activity.h"
#include "sensing/vitals.h"

namespace politewifi::runtime {
namespace {

class WifiSensingExperiment final : public Experiment {
 public:
  const ExperimentSpec& spec() const override {
    static const ExperimentSpec kSpec{
        .name = "wifi_sensing",
        .summary = "one hub turns a stock TV and thermostat into occupancy, "
                   "motion and breathing sensors",
        .default_seed = 77,
        .params = {
            {.name = "tv_rate_pps",
             .description = "fake-frame poll rate for the living-room zone",
             .default_value = 100.0,
             .min_value = 1.0},
            {.name = "thermostat_rate_pps",
             .description = "fake-frame poll rate for the bedroom zone",
             .default_value = 50.0,
             .min_value = 1.0},
            // Bounded by the band estimate_breathing scans: outside it
            // the estimator reports the nearest in-band rate, or nothing.
            {.name = "breathing_bpm",
             .description = "ground-truth breathing rate of the sleeper",
             .default_value = 16.0,
             .min_value = sensing::BreathingEstimatorConfig{}.min_bpm,
             .max_value = sensing::BreathingEstimatorConfig{}.max_bpm},
            {.name = "living_seed",
             .description = "living-room body-motion sub-seed",
             .default_value = std::int64_t{71},
             .min_value = 0.0},
            {.name = "bedroom_seed",
             .description = "bedroom body-motion sub-seed",
             .default_value = std::int64_t{72},
             .min_value = 0.0},
        },
    };
    return kSpec;
  }

  void run(RunContext& ctx) override {
    const double tv_rate = ctx.param_double("tv_rate_pps");
    const double th_rate = ctx.param_double("thermostat_rate_pps");
    const double truth_bpm = ctx.param_double("breathing_bpm");
    const auto sim_holder = ctx.make_sim({.shadowing_sigma_db = 0.0});
    auto& sim = *sim_holder;

    // The home: two stock devices, one hub running our software.
    sim::RadioConfig rc;
    rc.position = {6, 0};
    sim::Device& tv = sim.add_device(
        {.name = "smart-tv", .kind = sim::DeviceKind::kIot},
        *MacAddress::parse("8c:77:12:01:02:03"), rc);
    rc.position = {0, 7};
    sim::Device& thermostat = sim.add_device(
        {.name = "thermostat", .kind = sim::DeviceKind::kIot},
        *MacAddress::parse("44:61:32:04:05:06"), rc);
    rc.position = {0, 0};
    rc.capture_csi = true;
    sim::Device& hub = sim.add_device(
        {.name = "iot-hub", .kind = sim::DeviceKind::kSniffer},
        *MacAddress::parse("02:0a:c4:0a:0b:0c"), rc);

    // What actually happens in the home.
    scenario::BodyMotionModel living_room(
        {.seed = static_cast<std::uint64_t>(ctx.param_int("living_seed"))});
    living_room.add_phase(scenario::Activity::kStill, seconds(8));
    living_room.add_phase(scenario::Activity::kWalking, seconds(4));
    living_room.add_phase(scenario::Activity::kStill, seconds(18));

    scenario::BodyMotionModel bedroom(
        {.breathing_bpm = truth_bpm,
         .seed = static_cast<std::uint64_t>(ctx.param_int("bedroom_seed"))});
    bedroom.add_phase(scenario::Activity::kBreathing, seconds(90));

    scenario::install_body_csi_multi(
        sim.medium(),
        {{&tv.radio(), &living_room}, {&thermostat.radio(), &bedroom}},
        hub.radio(), sim.now());

    auto& results = ctx.results();

    // Sense zone 1: living room via the TV (100 pkt/s — the sensing-rate
    // range the paper cites as impossible with natural traffic).
    std::printf("Hub senses the living room via the smart TV's ACKs...\n");
    core::CsiCollector tv_sense(hub, tv.address());
    tv_sense.start(tv_rate);
    sim.run_for(seconds(30));
    tv_sense.stop();

    const int tv_sc = sensing::select_best_subcarrier(tv_sense.samples());
    const auto tv_series =
        sensing::resample_amplitude(tv_sense.samples(), tv_sc, tv_rate);
    sensing::ActivityDetector detector;
    const auto events = detector.motion_events(tv_series);
    const bool occupied = sensing::detect_occupancy(tv_series);
    std::printf("  occupancy: %s\n", occupied ? "OCCUPIED" : "empty");
    results["living_room"]["occupied"] = occupied;
    auto& motion = results["living_room"]["motion_events_s"];
    for (const double t : events) {
      std::printf("  motion event at t = %.1f s (truth: walk at 8 s)\n",
                  t - tv_series.t0_s);
      motion.push_back(t - tv_series.t0_s);
    }

    // Sense zone 2: bedroom via the thermostat.
    std::printf("\nHub senses the bedroom via the thermostat's ACKs...\n");
    core::CsiCollector th_sense(hub, thermostat.address());
    th_sense.start(th_rate);
    sim.run_for(seconds(50));
    th_sense.stop();

    const int th_sc = sensing::select_best_subcarrier(th_sense.samples());
    const auto th_series =
        sensing::resample_amplitude(th_sense.samples(), th_sc, th_rate);
    const auto breathing = sensing::estimate_breathing(th_series);
    if (breathing) {
      std::printf("  sleeping occupant: breathing %.1f bpm "
                  "(truth: %.1f, confidence %.2f)\n",
                  breathing->rate_bpm, truth_bpm, breathing->confidence);
      results["bedroom"]["breathing"] = breathing->to_json();
    } else {
      std::printf("  no periodic motion detected\n");
      ctx.fail();
    }
    results["bedroom"]["truth_bpm"] = truth_bpm;

    std::printf("\nDevices modified: 1 (the hub). Devices sensed: %llu ACKs\n"
                "from the TV, %llu from the thermostat — both on stock\n"
                "firmware, both just being polite.\n",
                (unsigned long long)tv.station().stats().acks_sent,
                (unsigned long long)thermostat.station().stats().acks_sent);
    results["tv_acks"] = tv.station().stats().acks_sent;
    results["thermostat_acks"] = thermostat.station().stats().acks_sent;
  }
};

std::unique_ptr<Experiment> make_wifi_sensing() {
  return std::make_unique<WifiSensingExperiment>();
}

}  // namespace

void register_wifi_sensing_experiment() {
  ExperimentRegistry::instance().add("wifi_sensing", &make_wifi_sensing);
}

}  // namespace politewifi::runtime
