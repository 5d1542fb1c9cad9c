// City-scale survey: the §3 wardrive sharded into independent
// districts, each its own city + simulation, reduced into one survey.
//
// Districts are the unit of multi-process scale-out: `--district=K`
// runs exactly one district (what the `district-KK` jobs of a `pw_run
// --city` campaign run, all on the run's seed), the default
// `--district=-1` runs all of them in-process. Both produce the same
// per-district entries — every sub-seed derives from the run seed and
// the district label, and the in-process path round-trips each entry
// through the canonical JSON text — so the campaign's reduce step
// (runtime/city_reduce.h) is byte-identical to the in-process document.
#include <cstdio>
#include <string>

#include "common/check.h"
#include "common/json_parse.h"
#include "core/wardrive.h"
#include "runtime/city_reduce.h"
#include "runtime/experiments/all.h"
#include "runtime/registry.h"
#include "runtime/run_context.h"
#include "scenario/city.h"

namespace politewifi::runtime {
namespace {

class CitySurveyExperiment final : public Experiment {
 public:
  const ExperimentSpec& spec() const override {
    static const ExperimentSpec kSpec{
        .name = "city",
        .summary = "the §3 survey at city scale: independent districts, "
                   "one wardrive each, reduced into one survey",
        .default_seed = 77,
        .params = {
            {.name = "districts",
             .description = "number of independent districts in the city",
             .default_value = std::int64_t{8},
             .smoke_value = std::int64_t{4},
             .min_value = 1.0,
             .max_value = 64.0},
            {.name = "district",
             .description = "run only this district (-1 = all; what "
                            "`pw_run --city` children use)",
             .default_value = std::int64_t{-1},
             .min_value = -1.0,
             .max_value = 63.0},
            {.name = "scale",
             .description = "per-district population scale (1.0 = the "
                            "paper's full 5,328-device census per district)",
             .default_value = 0.2,
             .smoke_value = 0.01,
             .min_value = 0.0,
             .max_value = 4.0,
             .min_exclusive = true},
            {.name = "shards",
             .description = "spatial shards per district medium "
                            "(1 = the unsharded reference path)",
             .default_value = std::int64_t{1},
             .min_value = 1.0,
             .max_value = 256.0},
        },
    };
    return kSpec;
  }

  void run(RunContext& ctx) override {
    const std::int64_t districts = ctx.param_int("districts");
    const std::int64_t district = ctx.param_int("district");
    const double scale = ctx.param_double("scale");
    const std::int64_t shards = ctx.param_int("shards");
    if (district >= districts) {
      std::printf("city: --district=%lld out of range (districts=%lld)\n",
                  static_cast<long long>(district),
                  static_cast<long long>(districts));
      ctx.fail();
      return;
    }

    std::printf("City survey: %lld district%s, scale %.3f, %lld shard%s "
                "per medium\n\n",
                static_cast<long long>(districts), districts == 1 ? "" : "s",
                scale, static_cast<long long>(shards),
                shards == 1 ? "" : "s");

    common::Json list = common::Json::array();
    const std::int64_t first = district < 0 ? 0 : district;
    const std::int64_t last = district < 0 ? districts - 1 : district;
    for (std::int64_t k = first; k <= last; ++k) {
      list.push_back(run_district(ctx, k, scale, shards));
    }

    const common::Json survey = aggregate_city_survey(list);
    std::printf("\nSurvey: %lld/%lld discovered devices responded "
                "(%.1f%%) across %lld district%s\n",
                static_cast<long long>(survey.find("responded")->as_int()),
                static_cast<long long>(survey.find("discovered")->as_int()),
                100.0 * survey.find("response_rate")->as_double(),
                static_cast<long long>(list.size()),
                list.size() == 1 ? "" : "s");

    ctx.results()["survey"] = survey;
    ctx.results()["districts"] = std::move(list);
  }

 private:
  static common::Json run_district(RunContext& ctx, std::int64_t k,
                                   double scale, std::int64_t shards) {
    scenario::CityConfig city_cfg;
    city_cfg.scale = scale;
    city_cfg.seed = ctx.derive_seed("district" + std::to_string(k));
    const scenario::CityPlan plan(
        scenario::CityPlan::grid_route(scale >= 0.5 ? 6 : 2, 500), city_cfg);

    sim::MediumConfig medium;
    medium.shards = static_cast<int>(shards);
    const auto sim_holder =
        ctx.make_sim(medium, /*seed_offset=*/static_cast<std::uint64_t>(k));
    core::WardriveCampaign campaign(*sim_holder, plan);
    const auto report = campaign.run();

    std::printf("District %lld: %zu devices, %zu discovered, %zu responded "
                "(%.1f%%), %llu fakes -> %llu ACKs\n",
                static_cast<long long>(k), report.population,
                report.discovered, report.responded,
                100.0 * report.response_rate(),
                static_cast<unsigned long long>(report.fake_frames_sent),
                static_cast<unsigned long long>(report.acks_observed));

    common::Json entry = report.to_json();
    entry["district"] = k;
    // Round-trip through the canonical text so the in-process entry
    // holds exactly the doubles a parent parsing this district's child
    // document would hold (dump -> parse is a fixed point).
    std::string parse_error;
    auto parsed = common::parse_json(entry.dump(), &parse_error);
    PW_CHECK(parsed.has_value(), "district entry round-trip: %s",
             parse_error.c_str());
    return std::move(*parsed);
  }
};

std::unique_ptr<Experiment> make_city_survey() {
  return std::make_unique<CitySurveyExperiment>();
}

}  // namespace

void register_city_survey_experiment() {
  ExperimentRegistry::instance().add("city", &make_city_survey);
}

}  // namespace politewifi::runtime
