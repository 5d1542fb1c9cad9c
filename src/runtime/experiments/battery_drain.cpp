// Battery-drain attack (§4.2) on a power-saving IoT device.
//
// An ESP8266-class sensor node spends its life in 802.11 power save at
// ~10 mW. The attacker bombards it with fake frames: every frame resets
// the victim's idle timer (it can't know the frame is fake until long
// after the ACK), so the radio never sleeps — and every ACK burns
// transmit energy on top. Sweeps the attack rate and projects battery
// life for two commercial cameras.
#include <cmath>
#include <cstdio>

#include "core/battery_attack.h"
#include "mac/rate_control.h"
#include "scenario/device_profiles.h"
#include "runtime/experiments/all.h"
#include "runtime/registry.h"
#include "runtime/run_context.h"

namespace politewifi::runtime {
namespace {

class BatteryDrainExperiment final : public Experiment {
 public:
  const ExperimentSpec& spec() const override {
    static const ExperimentSpec kSpec{
        .name = "battery_drain",
        .summary = "fake-frame flood keeps a power-save IoT node awake; "
                   "projects camera battery life",
        .default_seed = 62,
        .params = {
            {.name = "warmup_s",
             .description = "settling time before each measurement window",
             .default_value = std::int64_t{2},
             .min_value = 0.0},
            {.name = "measure_s",
             .description = "measurement window per attack rate",
             .default_value = std::int64_t{15},
             .smoke_value = std::int64_t{5},
             .min_value = 1.0},
            {.name = "fading_rho",
             .description = "AR(1) fading autocorrelation per coherence "
                            "interval (0 = memoryless channel)",
             .default_value = 0.0,
             .min_value = 0.0,
             .max_value = 0.999},
            {.name = "fading_sigma_db",
             .description = "stationary fading spread in dB",
             .default_value = 2.0,
             .min_value = 0.0,
             .max_value = 30.0},
            {.name = "fading_coherence_us",
             .description = "fading coherence interval in microseconds",
             .default_value = 1000.0,
             .min_value = 1.0,
             .max_value = 1e9},
            {.name = "adaptive_rate",
             .description = "ARF rate adaptation on the sensor (the ladder "
                            "trajectory lands in results)",
             .default_value = false},
        },
    };
    return kSpec;
  }

  void run(RunContext& ctx) override {
    const auto sim_holder = ctx.make_sim(
        {.shadowing_sigma_db = 0.0,
         .fading_rho = ctx.param_double("fading_rho"),
         .fading_sigma_db = ctx.param_double("fading_sigma_db"),
         .fading_coherence_us = ctx.param_double("fading_coherence_us")});
    auto& sim = *sim_holder;

    mac::ApConfig apc;
    apc.fast_keys = true;
    sim.add_ap("home-ap", *MacAddress::parse("f2:6e:0b:01:02:03"), {0, 0},
               apc);

    mac::ClientConfig cc;
    cc.fast_keys = true;
    cc.power_save = true;                    // the whole point
    cc.idle_timeout = milliseconds(100);     // doze after 100 ms idle
    cc.beacon_wake_window = milliseconds(1); // brief beacon listens
    cc.adaptive_rate = ctx.param_bool("adaptive_rate");
    sim::Device& sensor = sim.add_client(
        "esp8266-sensor", *MacAddress::parse("24:0a:c4:aa:bb:cc"), {4, 0}, cc);

    sim::RadioConfig rig;
    rig.position = {8, 2};
    sim::Device& attacker = sim.add_device(
        {.name = "attacker", .kind = sim::DeviceKind::kAttacker},
        *MacAddress::parse("02:de:ad:be:ef:03"), rig);

    sim.establish(sensor, seconds(10));
    std::printf("ESP8266-class sensor associated, power save on.\n\n");

    core::BatteryDrainAttack attack(sim, attacker, sensor);

    const auto warmup = seconds(ctx.param_int("warmup_s"));
    const auto measure = seconds(ctx.param_int("measure_s"));

    std::printf("%-12s %-12s %-12s %-10s\n", "rate (pps)", "power (mW)",
                "sleep frac", "ACKs sent");
    auto& results = ctx.results();
    auto& sweep = results["rate_sweep"];
    double unattacked = 0.0, attacked_900 = 0.0;
    for (const double rate : {0.0, 10.0, 50.0, 150.0, 450.0, 900.0}) {
      const auto r = attack.run(rate, warmup, measure);
      if (rate == 0.0) unattacked = r.avg_power_mw;
      if (rate == 900.0) attacked_900 = r.avg_power_mw;
      std::printf("%-12.0f %-12.1f %-12.2f %-10llu\n", rate, r.avg_power_mw,
                  r.sleep_fraction, (unsigned long long)r.acks_elicited);
      sweep.push_back(r.to_json());
    }

    std::printf("\nPower increase at 900 pps: %.0fx (paper: 35x)\n",
                attacked_900 / unattacked);
    if (unattacked > 0.0 && std::isfinite(attacked_900 / unattacked)) {
      results["power_increase_x"] = attacked_900 / unattacked;
    } else {
      ctx.fail();
    }

    // Rate-ladder trajectory of the victim's ARF controller: under a
    // correlated fade (--fading_rho > 0 with --adaptive_rate) the ladder
    // tracks the channel instead of thrashing; all-zero when adaptive
    // rate is off (the controller never gets fed).
    {
      const mac::ArfTrajectory& t =
          sensor.station().rate_controller().trajectory();
      common::Json ladder;
      ladder["outcomes"] = t.outcomes;
      ladder["upshifts"] = t.upshifts;
      ladder["downshifts"] = t.downshifts;
      ladder["min_index"] = t.min_index;
      ladder["max_index"] = t.max_index;
      ladder["final_index"] =
          sensor.station().rate_controller().ladder_index();
      common::Json dwell = common::Json::array();
      for (const std::uint64_t d : t.dwell) dwell.push_back(d);
      ladder["dwell"] = std::move(dwell);
      results["rate_ladder"] = std::move(ladder);
    }

    std::printf("\nBattery-life projections at the attacked draw:\n");
    auto& projections = results["projections"];
    for (const auto& cam :
         {scenario::logitech_circle2(), scenario::blink_xt2()}) {
      const auto proj =
          core::project_drain(cam.name, cam.battery_mwh, attacked_900);
      std::printf("  %-22s %.0f mWh, advertised \"%s\" -> drained in %.1f h\n",
                  cam.name.c_str(), cam.battery_mwh,
                  cam.advertised_life.c_str(), proj.hours_to_empty);
      projections.push_back(proj.to_json());
    }
    std::printf("\nA camera sold on months of battery dies before the next "
                "morning.\n");
  }
};

std::unique_ptr<Experiment> make_battery_drain() {
  return std::make_unique<BatteryDrainExperiment>();
}

}  // namespace

void register_battery_drain_experiment() {
  ExperimentRegistry::instance().add("battery_drain", &make_battery_drain);
}

}  // namespace politewifi::runtime
