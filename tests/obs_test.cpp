// Tests for the observability layer: registry determinism, histogram
// bucket semantics, the canonical metrics block (shape, wall exclusion,
// thread-count independence), the timeline profiler, the golden metrics
// documents, the CLI's --metrics/--timeline artifacts, and the
// OBSERVABILITY.md catalogue contract (the doc lists every registered
// metric and names nothing the registry doesn't have).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "frames/frame.h"
#include "frames/serializer.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "runtime/experiments/all.h"
#include "runtime/runner.h"
#include "sim/energy_model.h"

namespace politewifi {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Hist;
using obs::Registry;
using obs::TimelineProfiler;

/// RAII registry window: reset + enable on entry, disable on exit, so a
/// failing test can't leak an enabled registry into its neighbours.
struct MetricsWindow {
  MetricsWindow() {
    Registry::reset();
    Registry::set_enabled(true);
  }
  ~MetricsWindow() { Registry::set_enabled(false); }
};

// Tests that need the macros to actually collect skip under
// -DPW_METRICS=OFF, where they expand to no-ops by design (the shape,
// determinism, doc and timeline tests still run there).
#if PW_OBS_ON
#define PW_REQUIRE_OBS_ON() ((void)0)
#else
#define PW_REQUIRE_OBS_ON() \
  GTEST_SKIP() << "instrumentation compiled out (PW_METRICS=OFF)"
#endif

std::string read_repo_file(const std::string& rel) {
  const std::string path = std::string(PW_REPO_ROOT) + "/" + rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ------------------------------------------------------------ Registry --

TEST(ObsRegistry, CountersAccumulateAndReset) {
  PW_REQUIRE_OBS_ON();
  MetricsWindow window;
  PW_COUNT(kMacAcksSent);
  PW_COUNT_N(kMacAcksSent, 4);
  EXPECT_EQ(Registry::counter_value(Counter::kMacAcksSent), 5);
  Registry::reset();
  EXPECT_EQ(Registry::counter_value(Counter::kMacAcksSent), 0);
}

TEST(ObsRegistry, GaugesMergeByMax) {
  PW_REQUIRE_OBS_ON();
  MetricsWindow window;
  PW_GAUGE_MAX(kMediumRadiosPeak, 10);
  PW_GAUGE_MAX(kMediumRadiosPeak, 3);  // lower: ignored
  PW_GAUGE_MAX(kMediumRadiosPeak, 12);
  EXPECT_EQ(Registry::gauge_value(Gauge::kMediumRadiosPeak), 12);
}

TEST(ObsRegistry, DisabledRegistryRecordsNothing) {
  Registry::reset();
  Registry::set_enabled(false);
  PW_COUNT(kMacAcksSent);
  PW_GAUGE_MAX(kMediumRadiosPeak, 99);
  PW_HIST(kMacTxOctets, 64);
  EXPECT_EQ(Registry::counter_value(Counter::kMacAcksSent), 0);
  EXPECT_EQ(Registry::gauge_value(Gauge::kMediumRadiosPeak), 0);
  EXPECT_EQ(Registry::hist_total(Hist::kMacTxOctets), 0);
}

TEST(ObsRegistry, HistogramBucketEdgesAreInclusiveUpperBounds) {
  PW_REQUIRE_OBS_ON();
  MetricsWindow window;
  const obs::HistInfo& info =
      obs::hist_catalog()[static_cast<std::size_t>(Hist::kMacTxOctets)];
  ASSERT_GE(info.edges.size(), 3u);
  const std::int64_t e0 = info.edges[0];  // 16
  // Bucket i counts edges[i-1] < v <= edges[i]; beyond the last edge is
  // the trailing overflow bucket.
  PW_HIST(kMacTxOctets, e0);        // exactly on edge 0 -> bucket 0
  PW_HIST(kMacTxOctets, e0 + 1);    // just past edge 0  -> bucket 1
  PW_HIST(kMacTxOctets, info.edges.back());      // last regular bucket
  PW_HIST(kMacTxOctets, info.edges.back() + 1);  // overflow
  EXPECT_EQ(Registry::hist_bucket(Hist::kMacTxOctets, 0), 1);
  EXPECT_EQ(Registry::hist_bucket(Hist::kMacTxOctets, 1), 1);
  EXPECT_EQ(
      Registry::hist_bucket(Hist::kMacTxOctets, info.edges.size() - 1), 1);
  EXPECT_EQ(Registry::hist_bucket(Hist::kMacTxOctets, info.edges.size()), 1);
  EXPECT_EQ(Registry::hist_total(Hist::kMacTxOctets), 4);
  EXPECT_EQ(Registry::hist_sum(Hist::kMacTxOctets),
            e0 + (e0 + 1) + info.edges.back() + (info.edges.back() + 1));
}

TEST(ObsRegistry, CatalogIsFullyNamed) {
  for (const obs::MetricInfo& info : obs::counter_catalog()) {
    EXPECT_NE(info.name[0], '\0');
    EXPECT_NE(info.unit[0], '\0');
    EXPECT_NE(info.description[0], '\0');
  }
  for (const obs::MetricInfo& info : obs::gauge_catalog()) {
    EXPECT_NE(info.name[0], '\0');
  }
  for (const obs::HistInfo& info : obs::hist_catalog()) {
    EXPECT_NE(info.name[0], '\0');
    ASSERT_FALSE(info.edges.empty());
    ASSERT_LE(info.edges.size(), Registry::kMaxHistEdges);
    for (std::size_t i = 1; i < info.edges.size(); ++i) {
      EXPECT_LT(info.edges[i - 1], info.edges[i]) << info.name;
    }
  }
}

TEST(ObsRegistry, FramesDecodesCountsOnlyTheProgramsParses) {
  // One decode per parse the program makes. An FCS check, a string too
  // short to parse and an audit's re-parse (which PW_AUDIT builds also
  // make inside every serialize) count nothing, so the counter reads the
  // same in every build.
  PW_REQUIRE_OBS_ON();
  MetricsWindow window;
  const MacAddress a{0x02, 0, 0, 0, 0, 1};
  const MacAddress b{0x02, 0, 0, 0, 0, 2};
  const Bytes raw = frames::serialize(frames::make_null_function(a, b, 7));
  EXPECT_TRUE(frames::fcs_valid(raw));
  EXPECT_TRUE(frames::audit_deserialize(raw).frame.has_value());
  EXPECT_FALSE(frames::deserialize(Bytes{1, 2, 3}).frame.has_value());
  EXPECT_EQ(Registry::counter_value(Counter::kFramesDecodes), 0);
  frames::DeserializeResult recycled;
  frames::deserialize_into(raw, recycled);
  EXPECT_TRUE(frames::deserialize(raw).fcs_ok);
  EXPECT_EQ(Registry::counter_value(Counter::kFramesDecodes), 2);
}

// ----------------------------------------------------- Canonical block --

TEST(ObsBlock, ShapeIsCompleteEvenAllZero) {
  Registry::reset();
  Registry::set_enabled(false);
  const std::string text = Registry::to_json().dump();
  for (const obs::MetricInfo& info : obs::counter_catalog()) {
    EXPECT_NE(text.find("\"" + std::string(info.name) + "\""),
              std::string::npos)
        << info.name;
  }
  for (const obs::MetricInfo& info : obs::gauge_catalog()) {
    EXPECT_NE(text.find("\"" + std::string(info.name) + "\""),
              std::string::npos)
        << info.name;
  }
  for (const obs::HistInfo& info : obs::hist_catalog()) {
    const auto pos = text.find("\"" + std::string(info.name) + "\"");
    if (info.wall) {
      EXPECT_EQ(pos, std::string::npos)
          << info.name << " is wall-flagged but in the canonical block";
    } else {
      EXPECT_NE(pos, std::string::npos) << info.name;
    }
  }
}

TEST(ObsBlock, RepeatedDumpIsByteIdentical) {
  MetricsWindow window;
  PW_COUNT_N(kMediumTransmissions, 123);
  PW_HIST(kPhyFerPpm, 5000);
  EXPECT_EQ(Registry::to_json().dump(), Registry::to_json().dump());
}

TEST(ObsBlock, IncludeWallAddsOnlyWallHistograms) {
  PW_REQUIRE_OBS_ON();
  MetricsWindow window;
  { PW_TIMEIT(kRuntimeExperimentWallNs, "span"); }
  EXPECT_EQ(Registry::hist_total(Hist::kRuntimeExperimentWallNs), 1);
  const std::string canonical = Registry::to_json().dump();
  const std::string wall = Registry::to_json(/*include_wall=*/true).dump();
  EXPECT_EQ(canonical.find("runtime.experiment_wall_ns"), std::string::npos);
  EXPECT_NE(wall.find("runtime.experiment_wall_ns"), std::string::npos);
}

// The merge-determinism contract: the collected block does not depend on
// how many threads did the counting (the campaign driver's pool threads
// count concurrently).
TEST(ObsBlock, ThreadCountIndependentOnSyntheticSweep) {
  const auto run = [](std::size_t threads) {
    MetricsWindow window;
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([t, threads] {
        for (std::size_t i = t; i < 200; i += threads) {
          PW_COUNT(kMediumTransmissions);
          PW_COUNT_N(kMediumFanoutCandidates, i % 7);
          PW_GAUGE_MAX(kSchedulerPoolSlotsPeak, i);
          PW_HIST(kMacTxOctets, static_cast<std::int64_t>((i * 37) % 4096));
        }
      });
    }
    for (auto& thread : pool) thread.join();
    return Registry::to_json().dump();
  };
  const std::string single = run(1);
  EXPECT_EQ(single, run(4));
  EXPECT_EQ(single, run(13));
}

// --------------------------------------------------------- Experiments --

/// One exact work-count golden: a `pw_run ... --metrics --json` document
/// compared byte for byte against tests/goldens/metrics/<name>.json.
/// Every count in the metrics block (candidates and receptions per
/// transmission, fading draws, FER evaluations, cache hits, bytes
/// copied, pool allocations, decodes) is a pure function of the
/// experiment, its flags and its seed, so a change that does more work
/// fails here, on every host, without timing anything.
struct MetricsGolden {
  const char* name;
  const char* experiment;
  std::vector<common::Flag> flags;
  bool smoke;
};

void PrintTo(const MetricsGolden& c, std::ostream* os) { *os << c.name; }

// The benchmark's workloads at their conformance sizes (benchmark/run.py's
// `quick` parameters), the quickstart, and one district of the city.
const MetricsGolden kMetricsGoldens[] = {
    {"quickstart", "quickstart", {}, true},
    {"survey_static", "wardriving", {{"seed", "99"}, {"scale", "0.01"}},
     false},
    {"survey_fading",
     "wardriving",
     {{"seed", "99"},
      {"scale", "0.01"},
      {"fading_rho", "0.9"},
      {"fading_sigma_db", "2"},
      {"fading_coherence_us", "1000"}},
     false},
    {"flood_ack", "battery_drain", {{"seed", "62"}, {"measure_s", "5"}},
     false},
    {"city_district", "city", {{"district", "0"}}, true},
};

class ObsMetricsGolden : public ::testing::TestWithParam<MetricsGolden> {};

TEST_P(ObsMetricsGolden, DocumentMatchesGolden) {
  PW_REQUIRE_OBS_ON();
  const MetricsGolden& c = GetParam();
  runtime::register_builtin_experiments();
  runtime::RunOptions options;
  options.metrics = true;
  const auto result =
      runtime::run_experiment(c.experiment, c.flags, c.smoke, options);
  ASSERT_EQ(result.exit_code, 0) << result.error;
  const std::string path = std::string("tests/goldens/metrics/") + c.name +
                           ".json";
  std::string command = std::string("build/src/runtime/pw_run ") +
                        c.experiment + (c.smoke ? " --smoke" : "");
  for (const auto& flag : c.flags) {
    command += " --" + flag.name + "=" + flag.value.value_or("");
  }
  EXPECT_EQ(result.json, read_repo_file(path))
      << "regenerate with: " << command << " --metrics --json=" << path
      << " (then delete the side-car .metrics.json)";
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ObsMetricsGolden, ::testing::ValuesIn(kMetricsGoldens),
    [](const ::testing::TestParamInfo<MetricsGolden>& info) {
      return std::string(info.param.name);
    });

/// Runs the pw_run CLI in-process from a fresh temporary directory, so
/// default-named artifacts land where the test can list them, and
/// returns the names of the files the run left there.
std::set<std::string> pw_run_artifacts(std::vector<std::string> args) {
  namespace fs = std::filesystem;
  std::string dir =
      (fs::temp_directory_path() / "pw_obs_cli.XXXXXX").string();
  EXPECT_NE(mkdtemp(dir.data()), nullptr);
  const fs::path home = fs::current_path();
  fs::current_path(dir);
  std::string argv0 = "pw_run";
  std::vector<char*> argv = {argv0.data()};
  for (std::string& arg : args) argv.push_back(arg.data());
  ::testing::internal::CaptureStdout();
  const int code =
      runtime::pw_run_main(static_cast<int>(argv.size()), argv.data());
  ::testing::internal::GetCapturedStdout();
  fs::current_path(home);
  EXPECT_EQ(code, 0);
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  fs::remove_all(dir);
  return names;
}

// Each flag writes its own artifact and nothing else: a --metrics run
// records no timeline (for a city district the trace is ~160 MB and
// most of the run's wall time), and --timeline alone writes the trace.
TEST(ObsCli, MetricsAndTimelineWriteOnlyTheirOwnFiles) {
  using Names = std::set<std::string>;
  EXPECT_EQ(pw_run_artifacts({"quickstart", "--smoke", "--metrics"}),
            Names{"quickstart.metrics.json"});
  EXPECT_EQ(pw_run_artifacts({"quickstart", "--smoke", "--timeline"}),
            Names{"quickstart.trace.json"});
  EXPECT_EQ(
      pw_run_artifacts({"quickstart", "--smoke", "--metrics", "--timeline"}),
      (Names{"quickstart.metrics.json", "quickstart.trace.json"}));
}

TEST(ObsExperiment, RunWithoutMetricsLeavesDocumentClean) {
  runtime::register_builtin_experiments();
  const auto result =
      runtime::run_experiment("quickstart", {}, /*smoke=*/true);
  ASSERT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.json.find("\"metrics\""), std::string::npos);
  EXPECT_TRUE(result.metrics_json.empty());
  EXPECT_TRUE(result.timeline_json.empty());
}

// ------------------------------------------------------------ Timeline --

/// Complete ("ph": "X") span events in the profiler's trace.
std::size_t span_count(const TimelineProfiler& timeline) {
  const std::string text = timeline.dump();
  const std::string_view event = "\"ph\": \"X\"";
  std::size_t n = 0;
  for (std::size_t at = text.find(event); at != std::string::npos;
       at = text.find(event, at + 1)) {
    ++n;
  }
  return n;
}

TEST(ObsTimeline, EmitsChromeTraceJson) {
  TimelineProfiler timeline;
  timeline.add_sim_span("Rx", /*pid=*/1, /*tid=*/2, /*ts_ns=*/1000,
                        /*dur_ns=*/500);
  timeline.add_wall_span("experiment", /*dur_ns=*/2000);
  EXPECT_EQ(span_count(timeline), 2u);
  const std::string text = timeline.dump();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"Rx\""), std::string::npos);
  EXPECT_NE(text.find("process_name"), std::string::npos);
}

TEST(ObsTimeline, EnergyMeterEmitsDwellSpans) {
  TimelineProfiler timeline;
  obs::set_active_timeline(&timeline);
  const TimePoint t0 = kSimStart;
  sim::EnergyMeter meter(sim::PowerProfile::esp8266(), t0);
  meter.set_timeline_ids(/*pid=*/3, /*tid=*/7);
  meter.set_state(sim::RadioState::kRx, t0 + milliseconds(1));
  meter.set_state(sim::RadioState::kIdle, t0 + milliseconds(2));
  obs::set_active_timeline(nullptr);
  EXPECT_EQ(span_count(timeline), 2u);  // the closed idle and rx dwells
  const std::string text = timeline.dump();
  EXPECT_NE(text.find("\"idle\""), std::string::npos);
  EXPECT_NE(text.find("\"rx\""), std::string::npos);
}

TEST(ObsTimeline, BareMetersAndUninstalledProfilerAreSilent) {
  // No profiler installed: nothing to crash into.
  const TimePoint t0 = kSimStart;
  sim::EnergyMeter unmetered(sim::PowerProfile::esp8266(), t0);
  unmetered.set_timeline_ids(1, 1);
  unmetered.set_state(sim::RadioState::kRx, t0 + milliseconds(1));
  // Profiler installed but meter has no ids: stays empty.
  TimelineProfiler timeline;
  obs::set_active_timeline(&timeline);
  sim::EnergyMeter bare(sim::PowerProfile::esp8266(), t0);
  bare.set_state(sim::RadioState::kRx, t0 + milliseconds(1));
  obs::set_active_timeline(nullptr);
  EXPECT_EQ(span_count(timeline), 0u);
}

// -------------------------------------------------- OBSERVABILITY.md --

std::set<std::string> catalogued_names() {
  std::set<std::string> names;
  for (const obs::MetricInfo& info : obs::counter_catalog()) {
    names.insert(info.name);
  }
  for (const obs::MetricInfo& info : obs::gauge_catalog()) {
    names.insert(info.name);
  }
  for (const obs::HistInfo& info : obs::hist_catalog()) {
    names.insert(info.name);
  }
  return names;
}

/// Backtick-quoted dotted identifiers in layer namespaces — the doc's
/// way of naming a metric.
std::set<std::string> doc_metric_names(const std::string& doc) {
  std::set<std::string> found;
  std::size_t pos = 0;
  while ((pos = doc.find('`', pos)) != std::string::npos) {
    const std::size_t end = doc.find('`', pos + 1);
    if (end == std::string::npos) break;
    const std::string token = doc.substr(pos + 1, end - pos - 1);
    pos = end + 1;
    if (token.find('.') == std::string::npos) continue;
    bool identifier = true;
    for (const char c : token) {
      if (!(std::islower(static_cast<unsigned char>(c)) ||
            std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
            c == '_')) {
        identifier = false;
        break;
      }
    }
    if (!identifier) continue;
    for (const char* prefix : {"sim.", "mac.", "phy.", "runtime."}) {
      if (token.rfind(prefix, 0) == 0) {
        found.insert(token);
        break;
      }
    }
  }
  return found;
}

TEST(ObsDoc, ObservabilityMdListsEveryRegisteredMetric) {
  const std::string doc = read_repo_file("OBSERVABILITY.md");
  ASSERT_FALSE(doc.empty());
  for (const std::string& name : catalogued_names()) {
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "OBSERVABILITY.md does not document `" << name << "`";
  }
}

TEST(ObsDoc, ObservabilityMdNamesOnlyRegisteredMetrics) {
  const std::string doc = read_repo_file("OBSERVABILITY.md");
  const std::set<std::string> registry = catalogued_names();
  for (const std::string& token : doc_metric_names(doc)) {
    EXPECT_TRUE(registry.count(token))
        << "OBSERVABILITY.md names `" << token
        << "` which is not in the obs/ catalogue";
  }
}

}  // namespace
}  // namespace politewifi
