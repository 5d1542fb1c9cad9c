// City-scale survey (§3): discover thousands of devices, poke each one
// with fake frames, verify they all say "Hi!" back.
//
// Runs a scaled-down city by default so it finishes in seconds; raise
// --scale to grow it (1.0 = the paper's full 5,328-device census,
// several minutes).
#include <cstdio>
#include <sstream>

#include "core/wardrive.h"
#include "runtime/experiments/all.h"
#include "runtime/registry.h"
#include "runtime/run_context.h"
#include "scenario/city.h"

namespace politewifi::runtime {
namespace {

class WardrivingExperiment final : public Experiment {
 public:
  const ExperimentSpec& spec() const override {
    static const ExperimentSpec kSpec{
        .name = "wardriving",
        .summary = "the §3 city survey: discover, inject, verify every "
                   "device answers",
        .default_seed = 99,
        .params = {
            {.name = "scale",
             .description = "population scale (1.0 = the paper's full "
                            "5,328-device census)",
             .default_value = 0.02,
             .min_value = 0.0,
             .max_value = 4.0,
             .min_exclusive = true},
            {.name = "fading_rho",
             .description = "AR(1) fading autocorrelation per coherence "
                            "interval (0 = memoryless channel); marginal "
                            "survey links flap the way real channels do",
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
        },
    };
    return kSpec;
  }

  void run(RunContext& ctx) override {
    const double scale = ctx.param_double("scale");

    scenario::CityConfig city_cfg;
    city_cfg.scale = scale;
    city_cfg.seed = ctx.seed();
    const scenario::CityPlan plan(
        scenario::CityPlan::grid_route(scale >= 0.5 ? 6 : 2, 500), city_cfg);

    std::printf("City: %zu APs + %zu clients along a %.1f km route "
                "(scale %.3f)\n",
                plan.ap_count(), plan.client_count(),
                plan.route_length_m() / 1000.0, scale);
    std::printf("Driving the survey rig (discover / inject / verify)...\n\n");

    const auto sim_holder = ctx.make_sim(
        {.fading_rho = ctx.param_double("fading_rho"),
         .fading_sigma_db = ctx.param_double("fading_sigma_db"),
         .fading_coherence_us = ctx.param_double("fading_coherence_us")});
    auto& sim = *sim_holder;
    core::WardriveCampaign campaign(sim, plan);
    const auto report = campaign.run();

    std::printf("Drive: %.1f km in %.0f simulated seconds\n",
                report.distance_m / 1000.0, to_seconds(report.elapsed));
    std::printf("Discovered: %zu devices (%zu APs, %zu clients) from %zu "
                "vendors\n",
                report.discovered, report.discovered_aps,
                report.discovered_clients, report.distinct_vendors);
    std::printf("Fake frames injected: %llu; ACKs captured: %llu\n",
                (unsigned long long)report.fake_frames_sent,
                (unsigned long long)report.acks_observed);
    std::printf("Responded to fakes: %zu/%zu (%.1f%%)\n\n", report.responded,
                report.discovered, 100.0 * report.response_rate());

    std::ostringstream table;
    core::print_table2(table, report.client_table, report.ap_table, 10);
    std::fputs(table.str().c_str(), stdout);

    std::printf("\nEvery WiFi device in town answers a stranger.\n");

    ctx.results() = report.to_json();
  }
};

std::unique_ptr<Experiment> make_wardriving() {
  return std::make_unique<WardrivingExperiment>();
}

}  // namespace

void register_wardriving_experiment() {
  ExperimentRegistry::instance().add("wardriving", &make_wardriving);
}

}  // namespace politewifi::runtime
