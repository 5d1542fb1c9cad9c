#include "runtime/city_reduce.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <variant>

#include "obs/metrics.h"
#include "runtime/experiments/all.h"
#include "runtime/registry.h"
#include "runtime/run_context.h"
#include "runtime/runner.h"

namespace politewifi::runtime {

namespace {

using common::Json;

/// Sets *error; returns nullopt so optional-returning callers can
/// `return fail(...)`.
std::nullopt_t fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return std::nullopt;
}

/// The district entry fields the survey sums: integer tallies, and
/// real-valued totals.
constexpr const char* kTallies[] = {
    "population",        "discovered",       "discovered_aps",
    "discovered_clients", "responded",       "responded_aps",
    "responded_clients", "fake_frames_sent", "acks_observed"};
constexpr const char* kTotals[] = {"distance_m", "elapsed_s"};

/// Fields of a district report entry; an absent one counts 0. Kinds are
/// trusted here: in-process entries come from WardriveReport::to_json(),
/// and reduce_city_documents kind-checks parsed ones before aggregating.
std::int64_t entry_int(const Json& entry, const char* key) {
  const Json* v = entry.find(key);
  return v == nullptr ? 0 : v->as_int();
}

double entry_double(const Json& entry, const char* key) {
  const Json* v = entry.find(key);
  return v == nullptr ? 0.0 : v->as_double();
}

/// `section[name]` of one child's metrics block; nullptr with a named
/// error when it is absent or not an integer.
const Json* int_cell(const NamedBlock& block, const char* section,
                     const char* name, std::string* error) {
  const Json* s = block.second->find(section);
  const Json* cell = s == nullptr ? nullptr : s->find(name);
  if (cell == nullptr || cell->kind() != Json::Kind::kInt) {
    fail(error, block.first + ": metrics " + section + " \"" + name +
                    (cell == nullptr ? "\" is missing"
                                     : "\" must be an integer"));
    return nullptr;
  }
  return cell;
}

/// The `--city` reduce step: the journaled district documents reduce to
/// the one-process document, narrated and written where --json /
/// --metrics asked.
int reduce_city_campaign(
    const std::map<std::string, campaign::JobRecord>& records,
    const campaign::CampaignDriverOptions& options) {
  std::vector<Json> children;
  children.reserve(records.size());
  for (const auto& [id, record] : records) children.push_back(record.document);
  std::string error;
  const auto doc = reduce_city_documents(children, &error);
  if (!doc.has_value()) {
    std::fprintf(stderr, "pw_run: city reduction failed: %s\n",
                 error.c_str());
    return 1;
  }

  const Json& survey = *doc->find("results")->find("survey");
  std::printf("City survey (reduced): %lld/%lld discovered devices "
              "responded (%.1f%%) across %lld districts\n",
              static_cast<long long>(survey.find("responded")->as_int()),
              static_cast<long long>(survey.find("discovered")->as_int()),
              100.0 * survey.find("response_rate")->as_double(),
              static_cast<long long>(survey.find("districts")->as_int()));

  int exit_code = doc->find("failed")->as_bool() ? 1 : 0;
  if (options.json_arg.has_value() &&
      !write_output("json", "city.json", doc->dump() + "\n",
                    *options.json_arg, /*force_dir=*/false)) {
    exit_code = 1;
  }
  if (options.metrics_arg.has_value()) {
    const Json* metrics = doc->find("metrics");
    if (metrics == nullptr) {
      std::fprintf(stderr,
                   "pw_run: --metrics asked but the district documents "
                   "carry no metrics block (the city campaign was "
                   "journaled without --metrics)\n");
      exit_code = 1;
    } else if (!write_output("metrics", "city.metrics.json",
                             metrics->dump() + "\n", *options.metrics_arg,
                             /*force_dir=*/false)) {
      exit_code = 1;
    }
  }
  return exit_code;
}

}  // namespace

Json aggregate_city_survey(const Json& districts) {
  Json survey = Json::object();
  for (const char* key : kTallies) {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < districts.size(); ++i) {
      sum += entry_int(districts.at(i), key);
    }
    survey[key] = sum;
  }
  for (const char* key : kTotals) {
    double sum = 0.0;
    for (std::size_t i = 0; i < districts.size(); ++i) {
      sum += entry_double(districts.at(i), key);
    }
    survey[key] = sum;
  }
  survey["districts"] = static_cast<std::int64_t>(districts.size());
  const std::int64_t discovered = survey["discovered"].as_int();
  survey["response_rate"] =
      discovered == 0 ? 0.0
                      : static_cast<double>(survey["responded"].as_int()) /
                            static_cast<double>(discovered);
  return survey;
}

std::optional<Json> merge_metrics_blocks(const std::vector<NamedBlock>& blocks,
                                         std::string* error) {
  Json counters = Json::object();
  for (const obs::MetricInfo& info : obs::counter_catalog()) {
    std::int64_t sum = 0;
    for (const NamedBlock& block : blocks) {
      const Json* cell = int_cell(block, "counters", info.name, error);
      if (cell == nullptr) return std::nullopt;
      sum += cell->as_int();
    }
    counters[info.name] = sum;
  }
  Json gauges = Json::object();
  for (const obs::MetricInfo& info : obs::gauge_catalog()) {
    std::int64_t peak = 0;
    for (const NamedBlock& block : blocks) {
      const Json* cell = int_cell(block, "gauges", info.name, error);
      if (cell == nullptr) return std::nullopt;
      peak = std::max(peak, cell->as_int());
    }
    gauges[info.name] = peak;
  }
  Json hists = Json::object();
  for (const obs::HistInfo& info : obs::hist_catalog()) {
    if (info.wall) continue;  // never in the canonical block
    Json edges = Json::array();
    for (const std::int64_t edge : info.edges) edges.push_back(edge);
    const std::string edges_text = edges.dump();
    const std::size_t buckets = info.edges.size() + 1;
    std::vector<std::int64_t> counts(buckets, 0);
    std::int64_t sum = 0;
    std::int64_t total = 0;
    for (const NamedBlock& block : blocks) {
      const std::string what =
          block.first + ": metrics histogram \"" + info.name + "\"";
      const Json* section = block.second->find("histograms");
      const Json* cell = section == nullptr ? nullptr : section->find(info.name);
      const Json* cell_counts = cell == nullptr ? nullptr : cell->find("counts");
      if (cell_counts == nullptr || !cell_counts->is_array() ||
          cell_counts->size() != buckets) {
        return fail(error, what + " is missing or its counts are not a " +
                               std::to_string(buckets) + "-bucket array");
      }
      const Json* cell_edges = cell->find("edges");
      if (cell_edges == nullptr || cell_edges->dump() != edges_text) {
        return fail(error, what + " edges are missing or disagree with "
                                  "this binary's catalogue");
      }
      const Json* cell_sum = cell->find("sum");
      const Json* cell_total = cell->find("total");
      for (const Json* v : {cell_sum, cell_total}) {
        if (v != nullptr && v->kind() != Json::Kind::kInt) {
          return fail(error, what + " sum and total must be integers");
        }
      }
      for (std::size_t b = 0; b < buckets; ++b) {
        if (cell_counts->at(b).kind() != Json::Kind::kInt) {
          return fail(error, what + " counts must be integers");
        }
        counts[b] += cell_counts->at(b).as_int();
      }
      sum += cell_sum != nullptr ? cell_sum->as_int() : 0;
      total += cell_total != nullptr ? cell_total->as_int() : 0;
    }
    Json merged_counts = Json::array();
    for (const std::int64_t count : counts) merged_counts.push_back(count);
    Json one = Json::object();
    one["counts"] = std::move(merged_counts);
    one["edges"] = std::move(edges);
    one["sum"] = sum;
    one["total"] = total;
    hists[info.name] = std::move(one);
  }
  Json out = Json::object();
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  out["histograms"] = std::move(hists);
  return out;
}

std::optional<Json> reduce_city_documents(const std::vector<Json>& children,
                                          std::string* error) {
  if (children.empty()) return fail(error, "no district documents to reduce");
  const std::int64_t want = static_cast<std::int64_t>(children.size());

  // Order children by params.district and validate the set is exactly
  // 0..D-1 with each child believing in the same district count. Until
  // its district index is read a child is named by its input position.
  std::vector<const Json*> ordered(children.size(), nullptr);
  for (std::size_t i = 0; i < children.size(); ++i) {
    std::string owner = "child document " + std::to_string(i);
    const Json* params = children[i].find("params");
    const Json* district = params == nullptr ? nullptr
                                             : params->find("district");
    const Json* districts = params == nullptr ? nullptr
                                              : params->find("districts");
    if (district == nullptr || districts == nullptr) {
      return fail(error, owner + " lacks params.district[s]");
    }
    if (district->kind() != Json::Kind::kInt) {
      return fail(error, owner + ": params.district must be an integer");
    }
    owner = "district " + std::to_string(district->as_int());
    if (districts->kind() != Json::Kind::kInt) {
      return fail(error, owner + ": params.districts must be an integer");
    }
    if (districts->as_int() != want) {
      return fail(error, "child documents disagree on the district count");
    }
    const std::int64_t k = district->as_int();
    if (k < 0 || k >= want || ordered[static_cast<std::size_t>(k)] != nullptr) {
      return fail(error,
                  "district indices are not exactly 0..D-1 (duplicate or "
                  "out-of-range district " +
                      std::to_string(k) + ")");
    }
    ordered[static_cast<std::size_t>(k)] = &children[i];
  }

  // Meta must agree across children once the district index is masked:
  // same experiment, seed, smoke flag and remaining params.
  const auto masked_meta = [](const Json& child) {
    Json meta = Json::object();
    for (const char* key : {"experiment", "seed", "smoke"}) {
      if (const Json* v = child.find(key)) meta[key] = *v;
    }
    Json params = *child.find("params");
    params["district"] = std::int64_t{-1};
    meta["params"] = std::move(params);
    return meta;
  };
  const std::string reference_meta = masked_meta(*ordered[0]).dump();
  for (const Json* child : ordered) {
    if (masked_meta(*child).dump() != reference_meta) {
      return fail(error,
                  "child documents disagree on experiment/seed/smoke/params");
    }
  }

  // Concatenate the district entries in district order and re-derive
  // the survey — the same aggregation the in-process run performs.
  Json districts_out = Json::array();
  bool failed = false;
  std::vector<NamedBlock> metrics_blocks;
  for (std::size_t k = 0; k < ordered.size(); ++k) {
    const Json& child = *ordered[k];
    const std::string owner = "district " + std::to_string(k);
    const Json* results = child.find("results");
    const Json* list = results == nullptr ? nullptr
                                          : results->find("districts");
    if (list == nullptr || !list->is_array() || list->size() != 1) {
      return fail(error, owner + ": results.districts is not a "
                                 "single-entry array");
    }
    const Json& entry = list->at(0);
    if (!entry.is_object()) {
      return fail(error, owner + ": results.districts[0] is not an object");
    }
    for (const char* key : kTallies) {
      const Json* v = entry.find(key);
      if (v != nullptr && v->kind() != Json::Kind::kInt) {
        return fail(error, owner + ": results.districts[0]." + key +
                               " must be an integer");
      }
    }
    for (const char* key : kTotals) {
      const Json* v = entry.find(key);
      if (v != nullptr && v->kind() != Json::Kind::kInt &&
          v->kind() != Json::Kind::kDouble) {
        return fail(error, owner + ": results.districts[0]." + key +
                               " must be a number");
      }
    }
    districts_out.push_back(entry);
    if (const Json* f = child.find("failed")) {
      if (f->kind() != Json::Kind::kBool) {
        return fail(error, owner + ": \"failed\" must be a bool");
      }
      failed = failed || f->as_bool();
    }
    if (const Json* m = child.find("metrics")) {
      metrics_blocks.emplace_back(owner, m);
    }
  }
  if (!metrics_blocks.empty() && metrics_blocks.size() != children.size()) {
    return fail(error, "only some child documents carry a metrics block");
  }

  Json doc = masked_meta(*ordered[0]);
  Json results = Json::object();
  results["survey"] = aggregate_city_survey(districts_out);
  results["districts"] = std::move(districts_out);
  doc["results"] = std::move(results);
  doc["failed"] = failed;
  if (!metrics_blocks.empty()) {
    auto merged = merge_metrics_blocks(metrics_blocks, error);
    if (!merged.has_value()) return std::nullopt;
    doc["metrics"] = std::move(*merged);
  }
  return doc;
}

int run_city_campaign(const std::vector<common::Flag>& flags, bool smoke,
                      const campaign::CampaignDriverOptions& options) {
  register_builtin_experiments();
  // Job params are the forwarded flags: last occurrence wins, as in
  // resolve_run, and a bare flag is a bool parameter's `true`.
  std::map<std::string, std::string> params;
  for (const common::Flag& flag : flags) {
    if (flag.name == "district") {
      std::fprintf(stderr,
                   "pw_run: --city sets --district per job; pass "
                   "--districts to size the city\n");
      return 2;
    }
    if (flag.name != "seed") params[flag.name] = flag.value.value_or("true");
  }
  // Resolve against the city spec up front: the district count sizes
  // the manifest, the resolved seed pins every job, and a bad flag
  // fails here rather than D times in the children.
  const auto experiment = ExperimentRegistry::instance().create("city");
  ResolvedRun resolved;
  std::string error;
  if (!resolve_run(experiment->spec(), flags, smoke, &resolved, &error)) {
    std::fprintf(stderr, "pw_run: %s\n", error.c_str());
    return 2;
  }
  const auto districts =
      std::get<std::int64_t>(resolved.params.at("districts"));

  campaign::CampaignManifest manifest;
  manifest.campaign = "city";
  manifest.suite_version = "city";
  manifest.base_seed = static_cast<std::int64_t>(resolved.seed);
  for (std::int64_t k = 0; k < districts; ++k) {
    campaign::CampaignJob job;
    job.id = (k < 10 ? "district-0" : "district-") + std::to_string(k);
    job.experiment = "city";
    job.params = params;
    job.params["district"] = std::to_string(k);
    job.smoke = smoke;
    // The run seed itself, not derive_job_seed(): a district derives
    // its sub-seeds from the run seed exactly as it does in one process.
    job.seed = manifest.base_seed;
    manifest.jobs.push_back(std::move(job));
  }

  campaign::CampaignDriverOptions run = options;
  const bool scratch = run.dir.empty();
  if (scratch) {
    const char* tmp = std::getenv("TMPDIR");
    run.dir = std::string(tmp != nullptr ? tmp : "/tmp") + "/pw_city.XXXXXX";
    if (mkdtemp(run.dir.data()) == nullptr) {
      std::fprintf(stderr, "pw_run: cannot create scratch directory %s\n",
                   run.dir.c_str());
      return 1;
    }
  }
  const int exit_code = campaign::run_campaign_driver(
      manifest, run,
      [&](const std::string& /*manifest_digest*/,
          const std::map<std::string, campaign::JobRecord>& records) {
        return reduce_city_campaign(records, run);
      });
  if (scratch && exit_code == 0) {
    std::error_code ec;
    std::filesystem::remove_all(run.dir, ec);  // best effort
  } else if (scratch) {
    // Quarantine messages point at its logs, and a checkpointed run
    // resumes from it.
    std::fprintf(stderr,
                 "pw_run: city campaign directory kept: %s (resume with "
                 "--campaign-dir=%s)\n",
                 run.dir.c_str(), run.dir.c_str());
  }
  return exit_code;
}

}  // namespace politewifi::runtime
