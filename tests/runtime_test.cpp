// Tests for the declarative experiment runtime: canonical JSON, strict
// flag parsing, the registry, spec resolution precedence, and the
// determinism contract (same spec + seed => byte-identical output, no
// matter how many times it runs).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "runtime/experiments/all.h"
#include "runtime/registry.h"
#include "runtime/run_context.h"
#include "runtime/runner.h"

namespace politewifi {
namespace {

using common::Flag;
using common::Json;
using runtime::Experiment;
using runtime::ExperimentRegistry;
using runtime::ExperimentSpec;
using runtime::ResolvedRun;
using runtime::RunContext;

// ---------------------------------------------------------------- Json --

TEST(JsonTest, SortsObjectKeys) {
  Json j;
  j["zulu"] = 1;
  j["alpha"] = 2;
  j["mike"] = 3;
  const std::string text = j.dump();
  EXPECT_LT(text.find("alpha"), text.find("mike"));
  EXPECT_LT(text.find("mike"), text.find("zulu"));
}

TEST(JsonTest, CanonicalDoubleFormat) {
  EXPECT_EQ(Json(0.0).dump(), "0");
  EXPECT_EQ(Json(-0.0).dump(), "0");  // -0 normalizes to 0
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json(0.02).dump(), "0.02");
  EXPECT_EQ(Json(150.0).dump(), "150");
}

TEST(JsonTest, ScalarsAndEscapes) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(std::int64_t{-7}).dump(), "-7");
  EXPECT_EQ(Json("a\"b\\c\n").dump(), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(Json().dump(), "null");
}

TEST(JsonTest, NullPromotesToObjectAndArray) {
  Json doc;
  doc["a"]["b"] = 1;  // path building through nulls
  EXPECT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("a"), nullptr);
  Json arr;
  arr.push_back(1);
  arr.push_back(2);
  EXPECT_TRUE(arr.is_array());
  EXPECT_EQ(arr.size(), 2u);
}

TEST(JsonTest, EqualTreesDumpEqualBytes) {
  auto build = [] {
    Json j;
    j["b"] = 2.5;
    j["a"]["nested"] = true;
    j["c"].push_back("x");
    return j.dump();
  };
  EXPECT_EQ(build(), build());
}

// --------------------------------------------------------------- Flags --

TEST(FlagsTest, SplitsFlagsAndPositionals) {
  const char* argv[] = {"prog", "run", "--scale=0.5", "--smoke", "tail"};
  std::string error;
  const auto parsed = common::parse_args(5, argv, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->positionals.size(), 2u);
  EXPECT_EQ(parsed->positionals[0], "run");
  EXPECT_EQ(parsed->positionals[1], "tail");
  ASSERT_EQ(parsed->flags.size(), 2u);
  EXPECT_EQ(parsed->flags[0].name, "scale");
  EXPECT_EQ(parsed->flags[0].value, "0.5");
  EXPECT_FALSE(parsed->flags[1].value.has_value());  // bare --smoke
}

TEST(FlagsTest, DoubleDashEndsOptions) {
  const char* argv[] = {"prog", "--", "--scale=0.5"};
  std::string error;
  const auto parsed = common::parse_args(3, argv, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->flags.empty());
  ASSERT_EQ(parsed->positionals.size(), 1u);
  EXPECT_EQ(parsed->positionals[0], "--scale=0.5");
}

TEST(FlagsTest, BareFlagDistinctFromEmptyValue) {
  const char* argv[] = {"prog", "--a", "--b="};
  std::string error;
  const auto parsed = common::parse_args(3, argv, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_FALSE(parsed->flags[0].value.has_value());
  ASSERT_TRUE(parsed->flags[1].value.has_value());
  EXPECT_EQ(*parsed->flags[1].value, "");
}

TEST(FlagsTest, RejectsSingleDashOptions) {
  const char* argv[] = {"prog", "-x"};
  std::string error;
  EXPECT_FALSE(common::parse_args(2, argv, &error).has_value());
  EXPECT_NE(error.find("-x"), std::string::npos);
}

TEST(FlagsTest, LastFlagWins) {
  const char* argv[] = {"prog", "--seed=1", "--seed=2"};
  std::string error;
  const auto parsed = common::parse_args(3, argv, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const Flag* flag = parsed->find_flag("seed");
  ASSERT_NE(flag, nullptr);
  EXPECT_EQ(flag->value, "2");
}

TEST(FlagsTest, StrictDoubleParsing) {
  double v = 0.0;
  EXPECT_TRUE(common::parse_double("0.5", &v));
  EXPECT_DOUBLE_EQ(v, 0.5);
  EXPECT_TRUE(common::parse_double("-2", &v));
  EXPECT_TRUE(common::parse_double("1e3", &v));
  // The atof bug class: every one of these must be rejected loudly.
  EXPECT_FALSE(common::parse_double("fast", &v));
  EXPECT_FALSE(common::parse_double("1.5x", &v));
  EXPECT_FALSE(common::parse_double("", &v));
  EXPECT_FALSE(common::parse_double("nan", &v));
  EXPECT_FALSE(common::parse_double("inf", &v));
}

TEST(FlagsTest, StrictIntParsing) {
  std::int64_t v = 0;
  EXPECT_TRUE(common::parse_int64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(common::parse_int64("-7", &v));
  EXPECT_FALSE(common::parse_int64("1.5", &v));
  EXPECT_FALSE(common::parse_int64("ten", &v));
  EXPECT_FALSE(common::parse_int64("", &v));
  EXPECT_FALSE(common::parse_int64("99999999999999999999", &v));
}

TEST(FlagsTest, BoolParsing) {
  bool v = false;
  for (const char* t : {"true", "1", "yes", "on"}) {
    EXPECT_TRUE(common::parse_bool(t, &v)) << t;
    EXPECT_TRUE(v) << t;
  }
  for (const char* t : {"false", "0", "no", "off"}) {
    EXPECT_TRUE(common::parse_bool(t, &v)) << t;
    EXPECT_FALSE(v) << t;
  }
  EXPECT_FALSE(common::parse_bool("TRUE", &v));
  EXPECT_FALSE(common::parse_bool("2", &v));
}

// ------------------------------------------------------------ Registry --

class NopExperiment final : public Experiment {
 public:
  const ExperimentSpec& spec() const override {
    static const ExperimentSpec kSpec{.name = "nop", .summary = "does nothing"};
    return kSpec;
  }
  void run(RunContext&) override {}
};

std::unique_ptr<Experiment> make_nop() {
  return std::make_unique<NopExperiment>();
}

TEST(RegistryTest, AddLookupAndRemove) {
  ExperimentRegistry registry;  // hermetic local instance
  EXPECT_TRUE(registry.add("nop", &make_nop));
  EXPECT_EQ(registry.size(), 1u);
  const auto exp = registry.create("nop");
  ASSERT_NE(exp, nullptr);
  EXPECT_EQ(exp->spec().name, "nop");
  EXPECT_EQ(registry.create("missing"), nullptr);
}

TEST(RegistryTest, RejectsDuplicatesAndBadNames) {
  ExperimentRegistry registry;
  EXPECT_TRUE(registry.add("dup", &make_nop));
  EXPECT_FALSE(registry.add("dup", &make_nop));  // duplicate
  EXPECT_FALSE(registry.add("", &make_nop));
  EXPECT_FALSE(registry.add("Has-Caps", &make_nop));
  EXPECT_FALSE(registry.add("white space", &make_nop));
  EXPECT_TRUE(registry.add("ok_name_2", &make_nop));
  EXPECT_EQ(registry.size(), 2u);
}

TEST(RegistryTest, NamesAreSorted) {
  ExperimentRegistry registry;
  registry.add("zeta", &make_nop);
  registry.add("alpha", &make_nop);
  registry.add("mid", &make_nop);
  const auto names = registry.names();
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(RegistryTest, BuiltinsAllRegisteredAndIdempotent) {
  runtime::register_builtin_experiments();
  const std::size_t before = ExperimentRegistry::instance().size();
  runtime::register_builtin_experiments();  // second call is a no-op
  EXPECT_EQ(ExperimentRegistry::instance().size(), before);
  for (const char* name :
       {"quickstart", "wardriving", "battery_drain", "keystroke_inference",
        "wifi_sensing", "defending", "wipeep_localization"}) {
    EXPECT_NE(ExperimentRegistry::instance().create(name), nullptr) << name;
  }
}

// ------------------------------------------------------- resolve_run ----

ExperimentSpec resolver_spec() {
  return ExperimentSpec{
      .name = "resolver_probe",
      .summary = "resolution fixture",
      .default_seed = 33,
      .params = {
          {.name = "x",
           .description = "a double",
           .default_value = 1.0,
           .smoke_value = 0.5,
           .min_value = 0.0,
           .max_value = 4.0,
           .min_exclusive = true},
          {.name = "n",
           .description = "an int",
           .default_value = std::int64_t{10},
           .min_value = 1.0},
          {.name = "verbose",
           .description = "a bool",
           .default_value = false},
          {.name = "label",
           .description = "a string",
           .default_value = std::string("abc")},
      },
  };
}

TEST(ResolveRunTest, DefaultsApply) {
  ResolvedRun out;
  std::string error;
  ASSERT_TRUE(runtime::resolve_run(resolver_spec(), {}, false, &out, &error))
      << error;
  EXPECT_EQ(out.seed, 33u);
  EXPECT_FALSE(out.smoke);
  EXPECT_DOUBLE_EQ(std::get<double>(out.params.at("x")), 1.0);
  EXPECT_EQ(std::get<std::int64_t>(out.params.at("n")), 10);
  EXPECT_FALSE(std::get<bool>(out.params.at("verbose")));
  EXPECT_EQ(std::get<std::string>(out.params.at("label")), "abc");
}

TEST(ResolveRunTest, SmokeValueReplacesDefault) {
  ResolvedRun out;
  std::string error;
  ASSERT_TRUE(runtime::resolve_run(resolver_spec(), {}, true, &out, &error))
      << error;
  EXPECT_TRUE(out.smoke);
  EXPECT_DOUBLE_EQ(std::get<double>(out.params.at("x")), 0.5);
  // n has no smoke_value: default survives.
  EXPECT_EQ(std::get<std::int64_t>(out.params.at("n")), 10);
}

TEST(ResolveRunTest, CliOverrideBeatsSmokeAndDefault) {
  ResolvedRun out;
  std::string error;
  const std::vector<Flag> flags = {{"x", "2.5"}, {"seed", "7"}};
  ASSERT_TRUE(
      runtime::resolve_run(resolver_spec(), flags, true, &out, &error))
      << error;
  EXPECT_DOUBLE_EQ(std::get<double>(out.params.at("x")), 2.5);
  EXPECT_EQ(out.seed, 7u);
}

TEST(ResolveRunTest, RejectsUnknownFlagListingKnown) {
  ResolvedRun out;
  std::string error;
  EXPECT_FALSE(runtime::resolve_run(resolver_spec(), {{"bogus", "1"}}, false,
                                    &out, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_NE(error.find("x"), std::string::npos);  // lists known params
}

TEST(ResolveRunTest, RejectsTypeAndBoundViolations) {
  ResolvedRun out;
  std::string error;
  const auto spec = resolver_spec();
  // Wrong type for the declared kind.
  EXPECT_FALSE(runtime::resolve_run(spec, {{"n", "1.5"}}, false, &out,
                                    &error));
  EXPECT_FALSE(runtime::resolve_run(spec, {{"x", "fast"}}, false, &out,
                                    &error));
  // Bounds: x in (0, 4], n >= 1.
  EXPECT_FALSE(runtime::resolve_run(spec, {{"x", "0"}}, false, &out, &error));
  EXPECT_NE(error.find("> 0"), std::string::npos);
  EXPECT_FALSE(runtime::resolve_run(spec, {{"x", "4.5"}}, false, &out,
                                    &error));
  EXPECT_FALSE(runtime::resolve_run(spec, {{"n", "0"}}, false, &out, &error));
  // Negative seed is rejected (seeds are unsigned).
  EXPECT_FALSE(runtime::resolve_run(spec, {{"seed", "-1"}}, false, &out,
                                    &error));
}

TEST(ResolveRunTest, BareFlagOnlyValidForBools) {
  ResolvedRun out;
  std::string error;
  ASSERT_TRUE(runtime::resolve_run(resolver_spec(),
                                   {{"verbose", std::nullopt}}, false, &out,
                                   &error))
      << error;
  EXPECT_TRUE(std::get<bool>(out.params.at("verbose")));
  EXPECT_FALSE(runtime::resolve_run(resolver_spec(), {{"x", std::nullopt}},
                                    false, &out, &error));
}

// The fading knobs are bounded where the channel stays finite: a
// coherence interval of 1e30 us overflowed the us -> ns conversion and
// aborted the run, and a spread of 1e308 dB made NaN and infinite fades.
// Each experiment that exposes them refuses such input with a range
// error naming the flag, before anything runs; the maxima resolve.
TEST(ResolveRunTest, FadingKnobsAreBoundedInEveryExperiment) {
  runtime::register_builtin_experiments();
  const std::pair<std::string, std::string> too_large[] = {
      {"fading_coherence_us", "1e30"}, {"fading_sigma_db", "1e308"}};
  const std::pair<std::string, std::string> maxima[] = {
      {"fading_coherence_us", "1e9"}, {"fading_sigma_db", "30"}};
  for (const std::string name : {"wardriving", "battery_drain", "defending"}) {
    const auto experiment = ExperimentRegistry::instance().create(name);
    ASSERT_NE(experiment, nullptr) << name;
    for (const auto& [flag, value] : too_large) {
      ResolvedRun resolved;
      std::string error;
      EXPECT_FALSE(runtime::resolve_run(experiment->spec(),
                                        {{"fading_rho", "0.9"}, {flag, value}},
                                        /*smoke=*/true, &resolved, &error))
          << name << " --" << flag << "=" << value;
      EXPECT_NE(error.find("--" + flag + ": " + value + " is out of range"),
                std::string::npos)
          << name << ": " << error;
    }
    for (const auto& [flag, value] : maxima) {
      ResolvedRun resolved;
      std::string error;
      EXPECT_TRUE(runtime::resolve_run(experiment->spec(),
                                       {{"fading_rho", "0.9"}, {flag, value}},
                                       /*smoke=*/true, &resolved, &error))
          << name << " --" << flag << "=" << value << ": " << error;
    }
  }
}

// ------------------------------------------------------- RunContext -----

TEST(RunContextTest, DerivedSeedsAreStableAndDecorrelated) {
  const auto spec = resolver_spec();
  ResolvedRun run;
  std::string error;
  ASSERT_TRUE(runtime::resolve_run(spec, {}, false, &run, &error));
  RunContext a(spec, run);
  RunContext b(spec, run);
  EXPECT_EQ(a.derive_seed("typing"), b.derive_seed("typing"));
  EXPECT_NE(a.derive_seed("typing"), a.derive_seed("bedroom"));

  ResolvedRun other = run;
  other.seed = run.seed + 1;
  RunContext c(spec, other);
  EXPECT_NE(a.derive_seed("typing"), c.derive_seed("typing"));
}

TEST(RunContextTest, TypedParamAccess) {
  const auto spec = resolver_spec();
  ResolvedRun run;
  std::string error;
  ASSERT_TRUE(runtime::resolve_run(spec, {}, false, &run, &error));
  RunContext ctx(spec, run);
  EXPECT_DOUBLE_EQ(ctx.param_double("x"), 1.0);
  EXPECT_EQ(ctx.param_int("n"), 10);
  EXPECT_FALSE(ctx.param_bool("verbose"));
  EXPECT_EQ(ctx.param_string("label"), "abc");
}

TEST(RunContextTest, DocumentCarriesMetaAndFailure) {
  const auto spec = resolver_spec();
  ResolvedRun run;
  std::string error;
  ASSERT_TRUE(runtime::resolve_run(spec, {}, true, &run, &error));
  RunContext ctx(spec, run);
  ctx.results()["answer"] = 42;
  ctx.fail();
  const std::string text = ctx.sink().canonical_text();
  EXPECT_NE(text.find("\"experiment\": \"resolver_probe\""),
            std::string::npos);
  EXPECT_NE(text.find("\"smoke\": true"), std::string::npos);
  EXPECT_NE(text.find("\"failed\": true"), std::string::npos);
  EXPECT_NE(text.find("\"answer\": 42"), std::string::npos);
}

// ----------------------------------------------------- determinism ------

TEST(DeterminismTest, SameSpecAndSeedProduceIdenticalRuns) {
  runtime::register_builtin_experiments();
  const std::vector<Flag> flags = {{"seed", "123"}};
  ::testing::internal::CaptureStdout();
  const auto first = runtime::run_experiment("quickstart", flags, true);
  const std::string stdout_first = ::testing::internal::GetCapturedStdout();
  ::testing::internal::CaptureStdout();
  const auto second = runtime::run_experiment("quickstart", flags, true);
  const std::string stdout_second = ::testing::internal::GetCapturedStdout();
  ASSERT_EQ(first.exit_code, 0) << first.error;
  EXPECT_EQ(first.json, second.json);       // byte-identical document
  EXPECT_EQ(stdout_first, stdout_second);   // and narration
}

TEST(DeterminismTest, SeedChangesTheDocument) {
  runtime::register_builtin_experiments();
  ::testing::internal::CaptureStdout();
  const auto a = runtime::run_experiment("quickstart", {{"seed", "1"}}, true);
  const auto b = runtime::run_experiment("quickstart", {{"seed", "2"}}, true);
  ::testing::internal::GetCapturedStdout();
  ASSERT_EQ(a.exit_code, 0) << a.error;
  ASSERT_EQ(b.exit_code, 0) << b.error;
  // The meta block alone differs; results may or may not.
  EXPECT_NE(a.json, b.json);
}

TEST(RunExperimentTest, UnknownNameFailsWithUsage) {
  runtime::register_builtin_experiments();
  const auto result = runtime::run_experiment("no_such_thing", {}, false);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.error.find("no_such_thing"), std::string::npos);
  EXPECT_NE(result.error.find("quickstart"), std::string::npos);
}

}  // namespace
}  // namespace politewifi
