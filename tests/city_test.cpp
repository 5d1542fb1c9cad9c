// City-scale reduction equivalence: one child document per district,
// reduced by runtime/city_reduce, must be *byte-identical* to the
// in-process `pw_run city` document — including the merged `metrics`
// block. CityReduction proves it on in-process children; CityProcesses
// re-proves it across real processes through `pw_run --city` (the
// campaign driver spawning the PW_PW_RUN binary), including a SIGKILLed
// district and a checkpoint/resume.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/json_parse.h"
#include "obs/metrics.h"
#include "runtime/campaign/driver.h"
#include "runtime/city_reduce.h"
#include "runtime/experiments/all.h"
#include "runtime/runner.h"
#include "temp_dir.h"

namespace politewifi {
namespace {

using common::Json;

/// Runs the city experiment quietly (narration swallowed), metrics on.
runtime::RunExperimentResult run_city(std::vector<common::Flag> flags) {
  runtime::register_builtin_experiments();
  runtime::RunOptions options;
  options.metrics = true;
  ::testing::internal::CaptureStdout();
  auto result =
      runtime::run_experiment("city", flags, /*smoke=*/true, options);
  ::testing::internal::GetCapturedStdout();
  return result;
}

Json parse_or_die(const std::string& text) {
  std::string error;
  auto parsed = common::parse_json(text, &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  return parsed.has_value() ? std::move(*parsed) : Json();
}

/// The property itself, parameterized on the extra experiment flags:
/// reduce(4 x district=k) == district=-1, byte for byte.
void expect_reduction_matches_in_process(
    const std::vector<common::Flag>& base) {
  const auto whole = run_city(base);
  ASSERT_EQ(whole.exit_code, 0) << whole.error;

  std::vector<Json> children;
  for (int k = 0; k < 4; ++k) {
    auto flags = base;
    flags.push_back({"district", std::to_string(k)});
    const auto child = run_city(flags);
    ASSERT_EQ(child.exit_code, 0) << child.error;
    children.push_back(parse_or_die(child.json));
  }

  std::string error;
  const auto reduced = runtime::reduce_city_documents(children, &error);
  ASSERT_TRUE(reduced.has_value()) << error;
  EXPECT_EQ(reduced->dump() + "\n", whole.json);
}

// The suite runs at half smoke scale to stay quick; smoke resolves
// districts=4.
const std::vector<common::Flag> kQuick = {{"scale", "0.005"}};

TEST(CityReduction, ChildDocumentsReduceToTheInProcessBytes) {
  expect_reduction_matches_in_process(kQuick);
}

// --- Reducer validation on synthetic documents --------------------------------

Json district_entry(int k) {
  Json entry = Json::object();
  entry["district"] = k;
  entry["population"] = 10;
  entry["discovered"] = 8;
  entry["responded"] = 8;
  entry["distance_m"] = 1000.0;
  entry["elapsed_s"] = 42.5;
  return entry;
}

Json child_doc(int k, int districts, std::int64_t seed = 77) {
  Json params = Json::object();
  params["district"] = k;
  params["districts"] = districts;
  params["scale"] = 0.01;
  Json results = Json::object();
  Json list = Json::array();
  list.push_back(district_entry(k));
  results["survey"] = runtime::aggregate_city_survey(list);
  results["districts"] = std::move(list);
  Json doc = Json::object();
  doc["experiment"] = "city";
  doc["seed"] = seed;
  doc["smoke"] = true;
  doc["params"] = std::move(params);
  doc["results"] = std::move(results);
  doc["failed"] = false;
  return doc;
}

TEST(CityReducer, AcceptsChildrenInAnyOrder) {
  std::vector<Json> children;
  children.push_back(child_doc(1, 2));
  children.push_back(child_doc(0, 2));
  std::string error;
  const auto doc = runtime::reduce_city_documents(children, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("params")->find("district")->as_int(), -1);
  const Json& list = *doc->find("results")->find("districts");
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.at(0).find("district")->as_int(), 0);
  EXPECT_EQ(list.at(1).find("district")->as_int(), 1);
  EXPECT_EQ(doc->find("results")
                ->find("survey")
                ->find("discovered")
                ->as_int(),
            16);
}

TEST(CityReducer, RejectsDuplicateDistricts) {
  std::vector<Json> children{child_doc(0, 2), child_doc(0, 2)};
  std::string error;
  EXPECT_FALSE(runtime::reduce_city_documents(children, &error).has_value());
  EXPECT_NE(error.find("0..D-1"), std::string::npos);
}

TEST(CityReducer, RejectsDisagreeingSeeds) {
  std::vector<Json> children{child_doc(0, 2, 77), child_doc(1, 2, 78)};
  std::string error;
  EXPECT_FALSE(runtime::reduce_city_documents(children, &error).has_value());
  EXPECT_NE(error.find("disagree"), std::string::npos);
}

TEST(CityReducer, RejectsWrongDistrictCount) {
  // Children believing in 3 districts but only 2 documents present.
  std::vector<Json> children{child_doc(0, 3), child_doc(1, 3)};
  std::string error;
  EXPECT_FALSE(runtime::reduce_city_documents(children, &error).has_value());
}

TEST(CityReducer, RejectsPartialMetrics) {
  Json with_metrics = child_doc(0, 2);
  with_metrics["metrics"] = Json::object();
  std::vector<Json> children{std::move(with_metrics), child_doc(1, 2)};
  std::string error;
  EXPECT_FALSE(runtime::reduce_city_documents(children, &error).has_value());
  EXPECT_NE(error.find("metrics"), std::string::npos);
}

/// Reduces two children after `corrupt` edits the second; the reducer
/// must refuse with a named error (never a PW_CHECK abort) containing
/// every string in `expect`.
void expect_named_error(const std::function<void(Json*)>& corrupt,
                        const std::vector<std::string>& expect,
                        bool with_metrics = false) {
  std::vector<Json> children{child_doc(0, 2), child_doc(1, 2)};
  if (with_metrics) {
    obs::Registry::reset();
    for (Json& child : children) child["metrics"] = obs::Registry::to_json();
  }
  corrupt(&children[1]);
  std::string error;
  EXPECT_FALSE(runtime::reduce_city_documents(children, &error).has_value());
  for (const std::string& part : expect) {
    EXPECT_NE(error.find(part), std::string::npos) << error;
  }
}

TEST(CityReducer, WrongKindDistrictIsANamedError) {
  expect_named_error([](Json* doc) { (*doc)["params"]["district"] = "1"; },
                     {"child document 1", "params.district"});
}

TEST(CityReducer, WrongKindDistrictsIsANamedError) {
  expect_named_error([](Json* doc) { (*doc)["params"]["districts"] = "1"; },
                     {"district 1", "params.districts"});
}

TEST(CityReducer, StringCounterIsANamedError) {
  const char* name = obs::counter_catalog()[0].name;
  expect_named_error(
      [&](Json* doc) { (*doc)["metrics"]["counters"][name] = "7"; },
      {"district 1", name, "integer"}, /*with_metrics=*/true);
}

TEST(CityReducer, NonArrayHistogramCountsIsANamedError) {
  const obs::HistInfo* hist = nullptr;
  for (const obs::HistInfo& info : obs::hist_catalog()) {
    if (!info.wall) hist = &info;
  }
  ASSERT_NE(hist, nullptr);
  expect_named_error(
      [&](Json* doc) {
        (*doc)["metrics"]["histograms"][hist->name]["counts"] = 3;
      },
      {"district 1", hist->name, "counts"}, /*with_metrics=*/true);
}

TEST(CityReducer, WrongKindTallyAndFailedAreNamedErrors) {
  expect_named_error(
      [](Json* doc) {
        Json entry = district_entry(1);
        entry["discovered"] = 8.0;
        Json list = Json::array();
        list.push_back(std::move(entry));
        (*doc)["results"]["districts"] = std::move(list);
      },
      {"district 1", "discovered"});
  expect_named_error([](Json* doc) { (*doc)["failed"] = 0; },
                     {"district 1", "\"failed\""});
}

TEST(CityReducer, FailureInOneDistrictFailsTheSurvey) {
  Json failing = child_doc(1, 2);
  failing["failed"] = true;
  std::vector<Json> children{child_doc(0, 2), std::move(failing)};
  std::string error;
  const auto doc = runtime::reduce_city_documents(children, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_TRUE(doc->find("failed")->as_bool());
}

// --- `pw_run --city` across real processes ------------------------------------

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

constexpr const char* kTempPrefix = "pw_city_test";

/// `pw_run --city --smoke --metrics` through run_city_campaign, whose
/// children are the real pw_run binary; the reduced document and
/// metrics block land at `out`.json / `out`.metrics.json.
int run_city_processes(const std::vector<common::Flag>& flags,
                       const std::string& out,
                       runtime::campaign::CampaignDriverOptions options) {
  options.argv0 = PW_PW_RUN;
  options.json_arg = out + ".json";
  options.metrics_arg = out + ".metrics.json";
  ::testing::internal::CaptureStdout();
  const int code = runtime::run_city_campaign(flags, /*smoke=*/true, options);
  ::testing::internal::GetCapturedStdout();
  return code;
}

/// The reduced outputs at `out` equal the in-process run's bytes.
void expect_in_process_bytes(const runtime::RunExperimentResult& whole,
                             const std::string& out) {
  EXPECT_EQ(read_text(out + ".json"), whole.json) << out;
  EXPECT_EQ(read_text(out + ".metrics.json"), whole.metrics_json) << out;
}

class CityProcesses : public ::testing::TestWithParam<int> {};

TEST_P(CityProcesses, MatchTheInProcessBytes) {
  const auto whole = run_city(kQuick);
  ASSERT_EQ(whole.exit_code, 0) << whole.error;
  runtime::campaign::CampaignDriverOptions options;
  options.processes = GetParam();  // no dir: a TMPDIR scratch journal
  const TempDir tmp(kTempPrefix);
  const std::string out = tmp.path() + "/city";
  ASSERT_EQ(run_city_processes(kQuick, out, options), 0);
  expect_in_process_bytes(whole, out);
}

INSTANTIATE_TEST_SUITE_P(Procs, CityProcesses, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "procs" + std::to_string(info.param);
                         });

TEST(CityCampaign, SigkilledDistrictRetriesToTheSameBytes) {
  const auto whole = run_city(kQuick);
  ASSERT_EQ(whole.exit_code, 0) << whole.error;
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  runtime::campaign::CampaignDriverOptions options;
  options.dir = root + "/killed.campaign";
  options.processes = 4;
  options.faults.kill.insert({"district-01", 1});
  ASSERT_EQ(run_city_processes(kQuick, root + "/killed", options), 0);
  expect_in_process_bytes(whole, root + "/killed");
  // The kill really happened: district-01 took a second attempt.
  const auto state = common::parse_json(read_text(options.dir + "/state.json"));
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->find("jobs")->find("district-01")->find("attempts")->as_int(),
            2);
}

TEST(CityCampaign, CheckpointThenResumeGivesTheSameBytes) {
  const auto whole = run_city(kQuick);
  ASSERT_EQ(whole.exit_code, 0) << whole.error;
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  runtime::campaign::CampaignDriverOptions options;
  options.dir = root + "/resume.campaign";
  options.processes = 4;
  options.faults.stop_after = 2;
  ASSERT_EQ(run_city_processes(kQuick, root + "/resume", options), 3);
  EXPECT_TRUE(read_text(root + "/resume.json").empty())
      << "a checkpointed run must not reduce";
  options.faults.stop_after = 0;
  ASSERT_EQ(run_city_processes(kQuick, root + "/resume", options), 0);
  expect_in_process_bytes(whole, root + "/resume");
}

}  // namespace
}  // namespace politewifi
