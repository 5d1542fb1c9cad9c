#include "runtime/campaign/journal.h"

#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "common/jsonl.h"

namespace politewifi::runtime::campaign {

namespace {

using common::Json;

/// id → manifest job, built once per load: each record and event looks
/// its job up here instead of scanning manifest.jobs.
using JobIndex = std::map<std::string, const CampaignJob*, std::less<>>;

JobIndex index_jobs(const CampaignManifest& manifest) {
  JobIndex index;
  for (const CampaignJob& job : manifest.jobs) index.emplace(job.id, &job);
  return index;
}

bool set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

/// Presence + kind check in one step (manifest.cpp's require() with a
/// dynamic context string): the Json accessors PW_CHECK on a kind
/// mismatch, and a hand-corrupted journal must produce a named error,
/// never an abort.
const Json* require(const Json& object, const std::string& what,
                    const char* key, Json::Kind kind, const char* kind_name,
                    std::string* error) {
  const Json* v = object.find(key);
  if (v == nullptr) {
    set_error(error, what + ": missing required key \"" + key + "\"");
    return nullptr;
  }
  if (v->kind() != kind) {
    set_error(error, what + ": \"" + key + "\" must be a " + kind_name);
    return nullptr;
  }
  return v;
}

/// These files are machine-written, so an unexpected key is corruption
/// or drift, never an extension.
bool only_keys(const Json& object, const std::string& what,
               std::initializer_list<std::string_view> known,
               std::string* error) {
  for (const auto& [key, value] : object.as_object()) {
    (void)value;
    bool listed = false;
    for (const std::string_view name : known) listed |= key == name;
    if (!listed) {
      return set_error(error, what + " carries unknown key \"" + key + "\"");
    }
  }
  return true;
}

/// Reads a whole log. A torn tail refuses resume: the line was never
/// durable, and truncating it is an operator step, not a silent one.
bool read_log(const std::string& path, std::vector<Json>* lines,
              std::string* error) {
  common::JsonlReadResult log;
  if (!common::read_jsonl_file(path, &log, error)) return false;
  if (log.torn_tail) {
    return set_error(
        error, path + ": torn record at byte offset " +
                   std::to_string(log.torn_tail_offset) +
                   " (the writer died mid-append); run `tools/"
                   "pw_campaign.py repair <dir>` to truncate it, then "
                   "resume");
  }
  *lines = std::move(log.records);
  return true;
}

/// Parses one results.jsonl record and cross-checks it against its
/// manifest job. Strictness mirrors the manifest parser.
bool parse_record(const Json& doc, const JobIndex& jobs, JobRecord* out,
                  std::string* error) {
  if (!doc.is_object()) {
    return set_error(error, "results.jsonl: record is not an object");
  }
  if (!only_keys(doc, "results.jsonl: record",
                 {"digest", "document", "experiment", "id", "seed"},
                 error)) {
    return false;
  }
  const Json* id = require(doc, "results.jsonl: record", "id",
                           Json::Kind::kString, "string", error);
  if (id == nullptr) return false;
  out->id = id->as_string();
  const std::string what = "results.jsonl: record \"" + out->id + "\"";
  const Json* experiment = require(doc, what, "experiment",
                                   Json::Kind::kString, "string", error);
  const Json* seed =
      require(doc, what, "seed", Json::Kind::kInt, "integer", error);
  const Json* digest =
      require(doc, what, "digest", Json::Kind::kString, "string", error);
  if (experiment == nullptr || seed == nullptr || digest == nullptr) {
    return false;
  }
  const Json* document = doc.find("document");
  if (document == nullptr) {
    return set_error(error, what + ": missing required key \"document\"");
  }
  out->experiment = experiment->as_string();
  out->seed = seed->as_int();
  out->digest = digest->as_string();
  out->document = *document;

  const auto it = jobs.find(out->id);
  if (it == jobs.end()) {
    return set_error(error, what + " is not a job of this manifest");
  }
  const CampaignJob& job = *it->second;
  if (job.experiment != out->experiment || job.seed != out->seed) {
    return set_error(error, what + " disagrees with the manifest "
                                "(experiment or seed drift; was the "
                                "manifest edited mid-campaign?)");
  }
  const std::string recomputed = campaign_digest(document_text(out->document));
  if (recomputed != out->digest) {
    return set_error(error, what + " fails its own digest (" + recomputed +
                                " != " + out->digest + "): corrupt journal");
  }
  if (job.expect_digest.has_value() && *job.expect_digest != out->digest) {
    return set_error(error, what + ": journaled digest " + out->digest +
                                " does not match the pinned expect_digest " +
                                *job.expect_digest);
  }
  return true;
}

/// attempts.jsonl line 1: the campaign identity, cross-checked against
/// the manifest being resumed.
bool check_header(const Json& doc, const std::string& what,
                  const CampaignManifest& manifest,
                  const std::string& manifest_digest, std::string* error) {
  if (!doc.is_object() || doc.find("event") != nullptr) {
    return set_error(error, what + ": the first line must be the campaign "
                                "header, not an event");
  }
  if (!only_keys(doc, what,
                 {"campaign", "manifest_digest", "schema_version",
                  "suite_version"},
                 error)) {
    return false;
  }
  const Json* schema_version = require(doc, what, "schema_version",
                                       Json::Kind::kInt, "integer", error);
  const Json* campaign =
      require(doc, what, "campaign", Json::Kind::kString, "string", error);
  const Json* suite = require(doc, what, "suite_version", Json::Kind::kString,
                              "string", error);
  const Json* digest = require(doc, what, "manifest_digest",
                               Json::Kind::kString, "string", error);
  if (schema_version == nullptr || campaign == nullptr || suite == nullptr ||
      digest == nullptr) {
    return false;
  }
  if (schema_version->as_int() != 1) {
    return set_error(error, what + ": unsupported schema_version");
  }
  if (campaign->as_string() != manifest.campaign ||
      suite->as_string() != manifest.suite_version) {
    return set_error(error, what + ": journal belongs to campaign \"" +
                                campaign->as_string() + "\" suite \"" +
                                suite->as_string() +
                                "\", not this manifest");
  }
  if (digest->as_string() != manifest_digest) {
    return set_error(error, what + ": journal was written by a manifest "
                                "with digest " + digest->as_string() +
                                ", this one is " + manifest_digest +
                                ": refusing to mix campaigns");
  }
  return true;
}

/// Parses one attempts.jsonl event line against the manifest's jobs.
bool parse_attempt_event(const Json& doc, const std::string& what,
                         const JobIndex& jobs, AttemptEvent* out,
                         std::string* error) {
  if (!doc.is_object()) return set_error(error, what + " is not an object");
  const Json* event =
      require(doc, what, "event", Json::Kind::kString, "string", error);
  if (event == nullptr) return false;
  const Json* id =
      require(doc, what, "id", Json::Kind::kString, "string", error);
  if (id == nullptr) return false;
  out->id = id->as_string();
  const std::string job_what = what + ": job \"" + out->id + "\"";
  if (jobs.find(out->id) == jobs.end()) {
    return set_error(error, job_what + " is not a job of this manifest");
  }
  const Json* attempt = require(doc, job_what, "attempt", Json::Kind::kInt,
                                "integer", error);
  if (attempt == nullptr) return false;
  out->attempt = attempt->as_int();

  const std::string& name = event->as_string();
  if (name == "claimed") {
    out->kind = AttemptEvent::Kind::kClaimed;
    if (!only_keys(doc, job_what, {"attempt", "event", "id", "log"}, error)) {
      return false;
    }
    const Json* log =
        require(doc, job_what, "log", Json::Kind::kString, "string", error);
    if (log == nullptr) return false;
    out->log = log->as_string();
  } else if (name == "failed") {
    out->kind = AttemptEvent::Kind::kFailed;
    if (!only_keys(doc, job_what,
                   {"attempt", "backoff_ms", "event", "id", "outcome"},
                   error)) {
      return false;
    }
    const Json* outcome = require(doc, job_what, "outcome",
                                  Json::Kind::kString, "string", error);
    const Json* backoff = require(doc, job_what, "backoff_ms",
                                  Json::Kind::kInt, "integer", error);
    if (outcome == nullptr || backoff == nullptr) return false;
    out->outcome = outcome->as_string();
    out->backoff_ms = backoff->as_int();
  } else if (name == "quarantined") {
    out->kind = AttemptEvent::Kind::kQuarantined;
    if (!only_keys(doc, job_what, {"attempt", "event", "id", "reason"},
                   error)) {
      return false;
    }
    const Json* reason = require(doc, job_what, "reason",
                                 Json::Kind::kString, "string", error);
    if (reason == nullptr) return false;
    out->reason = reason->as_string();
  } else {
    return set_error(error, job_what + ": unknown event \"" + name + "\"");
  }
  return true;
}

const char* event_name(AttemptEvent::Kind kind) {
  switch (kind) {
    case AttemptEvent::Kind::kClaimed: return "claimed";
    case AttemptEvent::Kind::kFailed: return "failed";
    case AttemptEvent::Kind::kQuarantined: return "quarantined";
  }
  return "?";
}

}  // namespace

std::string results_path(const std::string& dir) {
  return dir + "/results.jsonl";
}

std::string attempts_path(const std::string& dir) {
  return dir + "/attempts.jsonl";
}

std::string state_path(const std::string& dir) { return dir + "/state.json"; }

std::string document_text(const common::Json& document) {
  return document.dump() + "\n";
}

common::Json JobRecord::to_json() const {
  Json doc = Json::object();
  doc["digest"] = digest;
  doc["document"] = document;
  doc["experiment"] = experiment;
  doc["id"] = id;
  doc["seed"] = seed;
  return doc;
}

common::Json AttemptEvent::to_json() const {
  Json doc = Json::object();
  doc["attempt"] = attempt;
  doc["event"] = event_name(kind);
  doc["id"] = id;
  switch (kind) {
    case Kind::kClaimed:
      doc["log"] = log;
      break;
    case Kind::kFailed:
      doc["backoff_ms"] = backoff_ms;
      doc["outcome"] = outcome;
      break;
    case Kind::kQuarantined:
      doc["reason"] = reason;
      break;
  }
  return doc;
}

std::int64_t next_attempt(const JobProgress& progress) {
  const bool quarantined =
      progress.status.has_value() && *progress.status == "quarantined";
  return quarantined ? 1 : progress.attempts + 1;
}

bool replay_attempt_event(const AttemptEvent& event, JobProgress* progress,
                          std::string* error) {
  const auto refuse = [&](const std::string& why) {
    return set_error(error, "job \"" + event.id + "\": " +
                                event_name(event.kind) + " attempt " +
                                std::to_string(event.attempt) + why);
  };
  if (event.kind == AttemptEvent::Kind::kClaimed) {
    const std::int64_t expected = next_attempt(*progress);
    if (event.attempt != expected) {
      return refuse(" where attempt " + std::to_string(expected) +
                    " was next (attempt numbers may not skip or go "
                    "backwards)");
    }
    if (expected == 1) *progress = JobProgress{};
    progress->attempts = event.attempt;
    progress->log = event.log;
    progress->claim_open = true;
    return true;
  }
  if (!progress->claim_open || event.attempt != progress->attempts) {
    return refuse(" does not end the open claim");
  }
  progress->claim_open = false;
  if (event.kind == AttemptEvent::Kind::kFailed) {
    progress->backoff_ms.push_back(event.backoff_ms);
  } else {
    progress->status = "quarantined";
  }
  return true;
}

common::Json attempts_header(const CampaignManifest& manifest,
                             const std::string& manifest_digest) {
  Json doc = Json::object();
  doc["campaign"] = manifest.campaign;
  doc["manifest_digest"] = manifest_digest;
  doc["schema_version"] = static_cast<std::int64_t>(1);
  doc["suite_version"] = manifest.suite_version;
  return doc;
}

bool load_campaign_journal(const std::string& dir,
                           const CampaignManifest& manifest,
                           const std::string& manifest_digest,
                           CampaignJournal* out, std::string* error) {
  out->completed.clear();
  out->progress.clear();
  out->has_attempts_header = false;

  const std::string results = results_path(dir);
  const std::string attempts = attempts_path(dir);
  const bool have_results = file_exists(results);
  if (!file_exists(attempts)) {
    if (!have_results) return true;  // a fresh campaign
    return set_error(error, results + " exists but " + attempts +
                                " does not: the campaign directory is "
                                "half-deleted or was written by an older "
                                "pw_run");
  }
  const JobIndex jobs = index_jobs(manifest);

  std::vector<Json> lines;
  if (!read_log(attempts, &lines, error)) return false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string what = attempts + " line " + std::to_string(i + 1);
    if (i == 0) {
      if (!check_header(lines[0], what, manifest, manifest_digest, error)) {
        return false;
      }
      out->has_attempts_header = true;
      continue;
    }
    AttemptEvent event;
    if (!parse_attempt_event(lines[i], what, jobs, &event, error)) {
      return false;
    }
    std::string replay_error;
    if (!replay_attempt_event(event, &out->progress[event.id],
                              &replay_error)) {
      return set_error(error, what + ": " + replay_error);
    }
  }

  if (!have_results) return true;
  if (!read_log(results, &lines, error)) return false;
  for (const Json& doc : lines) {
    JobRecord record;
    if (!parse_record(doc, jobs, &record, error)) return false;
    const std::string id = record.id;
    // The claim is flushed before the child is forked, so a record
    // always has one; a completed job's status and digest come from
    // its record.
    const auto progress = out->progress.find(id);
    if (progress == out->progress.end()) {
      return set_error(error, results + ": record for \"" + id + "\" but " +
                                  attempts + " never claimed it");
    }
    progress->second.status = "completed";
    progress->second.digest = record.digest;
    progress->second.claim_open = false;
    if (!out->completed.emplace(id, std::move(record)).second) {
      return set_error(error, results + ": duplicate record for \"" + id +
                                  "\": corrupt journal (a job must be "
                                  "journaled exactly once)");
    }
  }
  return true;
}

bool append_job_record(const std::string& dir, const JobRecord& record,
                       std::string* error) {
  return common::append_jsonl_record(results_path(dir), record.to_json(),
                                     error);
}

bool append_attempt_line(const std::string& dir, const common::Json& line,
                         std::string* error) {
  return common::append_jsonl_record(attempts_path(dir), line, error);
}

bool write_campaign_state(const std::string& dir,
                          const CampaignManifest& manifest,
                          const std::string& manifest_digest,
                          const std::map<std::string, JobProgress>& progress,
                          std::string* error) {
  Json doc = attempts_header(manifest, manifest_digest);
  Json jobs = Json::object();
  for (const auto& [id, entry] : progress) {
    Json j = Json::object();
    j["attempts"] = entry.attempts;
    Json backoff = Json::array();
    for (const std::int64_t ms : entry.backoff_ms) backoff.push_back(ms);
    j["backoff_ms"] = std::move(backoff);
    if (entry.digest.has_value()) j["digest"] = *entry.digest;
    if (entry.status.has_value()) j["status"] = *entry.status;
    if (entry.log.has_value()) j["log"] = *entry.log;
    jobs[id] = std::move(j);
  }
  doc["jobs"] = std::move(jobs);

  std::string write_error;
  if (!common::write_file_atomic(state_path(dir), doc.dump() + "\n",
                                 &write_error)) {
    return set_error(error, std::move(write_error));
  }
  return true;
}

}  // namespace politewifi::runtime::campaign
