#include "runtime/campaign/manifest.h"

#include <cstdio>
#include <set>
#include <utility>

#include "common/crc32.h"
#include "common/json_parse.h"

namespace politewifi::runtime::campaign {

namespace {

using common::Json;

bool set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// Mirrors run_context.cpp exactly. Changing any constant is a
// manifest-format break.
std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Names that become file names (logs, scratch documents) and journal
/// keys: lowercase + digits + [_.-], bounded, no path separators.
bool valid_name(const std::string& s) {
  if (s.empty() || s.size() > 64) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool valid_digest(const std::string& s) {
  if (s.size() != 14 || s.compare(0, 6, "crc32:") != 0) return false;
  for (std::size_t i = 6; i < s.size(); ++i) {
    const char c = s[i];
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return true;
}

bool reject_unknown_keys(const Json& object, const char* what,
                         const std::set<std::string>& known,
                         std::string* error) {
  for (const auto& [key, value] : object.as_object()) {
    (void)value;
    if (known.count(key) == 0) {
      return set_error(error, std::string(what) + ": unknown key \"" + key +
                                  "\" (strict schema; see CAMPAIGNS.md)");
    }
  }
  return true;
}

const Json* require(const Json& object, const char* what, const char* key,
                    Json::Kind kind, const char* kind_name,
                    std::string* error) {
  const Json* v = object.find(key);
  if (v == nullptr) {
    set_error(error, std::string(what) + ": missing required key \"" + key +
                         "\"");
    return nullptr;
  }
  if (v->kind() != kind) {
    set_error(error, std::string(what) + ": \"" + key + "\" must be a " +
                         kind_name);
    return nullptr;
  }
  return v;
}

bool parse_policy(const Json& doc, CampaignPolicy* out, std::string* error) {
  if (!reject_unknown_keys(doc, "policy",
                           {"backoff_ms", "max_attempts", "timeout_ms"},
                           error)) {
    return false;
  }
  const Json* max_attempts = require(doc, "policy", "max_attempts",
                                     Json::Kind::kInt, "integer", error);
  const Json* backoff = require(doc, "policy", "backoff_ms", Json::Kind::kInt,
                                "integer", error);
  const Json* timeout = require(doc, "policy", "timeout_ms", Json::Kind::kInt,
                                "integer", error);
  if (max_attempts == nullptr || backoff == nullptr || timeout == nullptr) {
    return false;
  }
  out->max_attempts = max_attempts->as_int();
  out->backoff_ms = backoff->as_int();
  out->timeout_ms = timeout->as_int();
  if (out->max_attempts < 1) {
    return set_error(error, "policy.max_attempts must be >= 1");
  }
  if (out->backoff_ms < 0 || out->timeout_ms < 0) {
    return set_error(error,
                     "policy.backoff_ms and policy.timeout_ms must be >= 0");
  }
  return true;
}

bool parse_job(const Json& doc, std::int64_t base_seed, CampaignJob* out,
               std::string* error) {
  if (!doc.is_object()) {
    return set_error(error, "jobs: every entry must be an object");
  }
  if (!reject_unknown_keys(
          doc, "job",
          {"experiment", "expect_digest", "id", "params", "seed", "smoke"},
          error)) {
    return false;
  }
  const Json* id =
      require(doc, "job", "id", Json::Kind::kString, "string", error);
  if (id == nullptr) return false;
  out->id = id->as_string();
  const char* what = out->id.empty() ? "job" : out->id.c_str();
  if (!valid_name(out->id)) {
    return set_error(error, "job.id \"" + out->id +
                                "\" must match [a-z0-9_.-]+ and be at most "
                                "64 characters");
  }
  const Json* experiment = require(doc, what, "experiment",
                                   Json::Kind::kString, "string", error);
  if (experiment == nullptr) return false;
  out->experiment = experiment->as_string();
  if (out->experiment.empty()) {
    return set_error(error, std::string(what) + ": experiment is empty");
  }

  out->params.clear();
  if (const Json* params = doc.find("params")) {
    if (!params->is_object()) {
      return set_error(error,
                       std::string(what) + ": \"params\" must be an object");
    }
    for (const auto& [key, value] : params->as_object()) {
      if (value.kind() != Json::Kind::kString) {
        return set_error(error, std::string(what) + ": param \"" + key +
                                    "\" must be a string (the CLI flag "
                                    "text, e.g. \"0.25\")");
      }
      out->params[key] = value.as_string();
    }
  }

  out->smoke = false;
  if (const Json* smoke = doc.find("smoke")) {
    if (smoke->kind() != Json::Kind::kBool) {
      return set_error(error,
                       std::string(what) + ": \"smoke\" must be a bool");
    }
    out->smoke = smoke->as_bool();
  }

  if (const Json* seed = doc.find("seed")) {
    if (seed->kind() != Json::Kind::kInt || seed->as_int() < 0) {
      return set_error(error, std::string(what) +
                                  ": \"seed\" must be a non-negative "
                                  "integer");
    }
    out->seed = seed->as_int();
  } else {
    out->seed = derive_job_seed(base_seed, out->id);
  }

  out->expect_digest.reset();
  if (const Json* digest = doc.find("expect_digest")) {
    if (digest->kind() != Json::Kind::kString ||
        !valid_digest(digest->as_string())) {
      return set_error(error, std::string(what) +
                                  ": \"expect_digest\" must look like "
                                  "\"crc32:0a1b2c3d\"");
    }
    out->expect_digest = digest->as_string();
  }
  return true;
}

}  // namespace

std::int64_t derive_job_seed(std::int64_t base_seed, std::string_view id) {
  const std::uint64_t mixed =
      splitmix64(static_cast<std::uint64_t>(base_seed) ^ fnv1a64(id));
  // --seed only accepts non-negative int64, so fold into [0, 2^63).
  return static_cast<std::int64_t>(mixed & 0x7fffffffffffffffULL);
}

std::string campaign_digest(std::string_view text) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(text.data());
  const std::uint32_t crc = crc32({bytes, text.size()});
  char buf[16];
  std::snprintf(buf, sizeof buf, "crc32:%08x", crc);
  return buf;
}

common::Json CampaignManifest::to_json() const {
  Json doc = Json::object();
  doc["base_seed"] = base_seed;
  doc["campaign"] = campaign;
  doc["suite_version"] = suite_version;
  Json policy_doc = Json::object();
  policy_doc["backoff_ms"] = policy.backoff_ms;
  policy_doc["max_attempts"] = policy.max_attempts;
  policy_doc["timeout_ms"] = policy.timeout_ms;
  doc["policy"] = std::move(policy_doc);
  Json jobs_doc = Json::array();
  for (const CampaignJob& job : jobs) {
    Json entry = Json::object();
    entry["experiment"] = job.experiment;
    entry["id"] = job.id;
    Json params_doc = Json::object();
    for (const auto& [key, value] : job.params) params_doc[key] = value;
    entry["params"] = std::move(params_doc);
    entry["seed"] = job.seed;
    entry["smoke"] = job.smoke;
    if (job.expect_digest.has_value()) {
      entry["expect_digest"] = *job.expect_digest;
    }
    jobs_doc.push_back(std::move(entry));
  }
  doc["jobs"] = std::move(jobs_doc);
  return doc;
}

std::optional<CampaignManifest> parse_campaign_manifest(
    const common::Json& doc, std::string* error) {
  if (!doc.is_object()) {
    set_error(error, "manifest: top level must be an object");
    return std::nullopt;
  }
  if (!reject_unknown_keys(
          doc, "manifest",
          {"base_seed", "campaign", "jobs", "policy", "suite_version"},
          error)) {
    return std::nullopt;
  }
  CampaignManifest out;
  const Json* campaign = require(doc, "manifest", "campaign",
                                 Json::Kind::kString, "string", error);
  const Json* suite = require(doc, "manifest", "suite_version",
                              Json::Kind::kString, "string", error);
  const Json* base_seed = require(doc, "manifest", "base_seed",
                                  Json::Kind::kInt, "integer", error);
  const Json* policy = require(doc, "manifest", "policy",
                               Json::Kind::kObject, "object", error);
  const Json* jobs = require(doc, "manifest", "jobs", Json::Kind::kArray,
                             "array", error);
  if (campaign == nullptr || suite == nullptr || base_seed == nullptr ||
      policy == nullptr || jobs == nullptr) {
    return std::nullopt;
  }
  out.campaign = campaign->as_string();
  if (!valid_name(out.campaign)) {
    set_error(error, "manifest.campaign \"" + out.campaign +
                         "\" must match [a-z0-9_.-]+ and be at most 64 "
                         "characters");
    return std::nullopt;
  }
  out.suite_version = suite->as_string();
  if (out.suite_version.empty()) {
    set_error(error, "manifest.suite_version is empty");
    return std::nullopt;
  }
  out.base_seed = base_seed->as_int();
  if (out.base_seed < 0) {
    set_error(error, "manifest.base_seed must be a non-negative integer");
    return std::nullopt;
  }
  if (!parse_policy(*policy, &out.policy, error)) return std::nullopt;
  if (jobs->size() == 0) {
    set_error(error, "manifest.jobs is empty: a campaign with nothing to "
                     "run is almost surely an authoring mistake");
    return std::nullopt;
  }
  std::set<std::string> seen_ids;
  for (std::size_t i = 0; i < jobs->size(); ++i) {
    CampaignJob job;
    if (!parse_job(jobs->at(i), out.base_seed, &job, error)) {
      return std::nullopt;
    }
    if (!seen_ids.insert(job.id).second) {
      set_error(error, "manifest.jobs: duplicate id \"" + job.id + "\"");
      return std::nullopt;
    }
    out.jobs.push_back(std::move(job));
  }
  return out;
}

std::optional<CampaignManifest> parse_campaign_manifest_text(
    std::string_view text, std::string* error) {
  std::string parse_error;
  auto doc = common::parse_json(text, &parse_error);
  if (!doc.has_value()) {
    set_error(error, "manifest: " + parse_error);
    return std::nullopt;
  }
  return parse_campaign_manifest(*doc, error);
}

}  // namespace politewifi::runtime::campaign
