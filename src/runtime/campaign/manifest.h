// Campaign manifest: the declarative input of the campaign runtime.
//
// A manifest names a suite version, a base seed and a list of jobs —
// each a registered experiment plus a parameter point — together with
// one fault-handling policy. Parsing is strict (unknown keys, malformed
// ids and non-string parameter values are errors, never warnings) and
// serialization is canonical: `to_json().dump()` of a parsed manifest
// reproduces the input bytes whenever the input was itself canonical
// with every seed spelled out, which is what lets resume cross-check
// the on-disk manifest copy by digest instead of by field-wise diff.
//
// Job sub-seeds follow the run_context derivation discipline:
// splitmix64(base_seed ^ fnv1a64(id)), masked to the non-negative
// int64 range `--seed` accepts, so a hand-written manifest may omit
// them (campaign_test pins the derivation and the canonical form
// against a checked-in golden).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"

namespace politewifi::runtime::campaign {

/// Fault-handling policy applied uniformly to every job.
struct CampaignPolicy {
  std::int64_t max_attempts = 3;  // attempts before quarantine, >= 1
  std::int64_t backoff_ms = 100;  // base delay, doubled per further attempt
  std::int64_t timeout_ms = 0;    // per-attempt budget; 0 = no timeout
};

/// One queued experiment request.
struct CampaignJob {
  std::string id;          // journal key: [a-z0-9_.-]+, <= 64 chars
  std::string experiment;  // registered experiment name
  // Parameter values stay CLI flag text ("--key=value"); keeping them as
  // strings keeps the manifest free of doubles, so the canonical form is
  // trivially byte-stable.
  std::map<std::string, std::string> params;
  bool smoke = false;
  std::int64_t seed = 0;  // effective sub-seed (derived when unspecified)
  std::optional<std::string> expect_digest;  // pinned "crc32:xxxxxxxx"
};

struct CampaignManifest {
  std::string campaign;       // [a-z0-9_.-]+, <= 64 chars
  std::string suite_version;  // free-form tag stamped into every artifact
  std::int64_t base_seed = 0;
  CampaignPolicy policy;
  std::vector<CampaignJob> jobs;  // non-empty, ids unique

  /// Canonical document; always spells out every job's effective seed.
  common::Json to_json() const;
};

/// splitmix64(base_seed ^ fnv1a64(id)) masked to [0, 2^63): the same
/// label-hash derivation RunContext::derive_seed uses, so job sub-seed
/// streams are independent per id and reproducible from the manifest
/// header alone.
std::int64_t derive_job_seed(std::int64_t base_seed, std::string_view id);

/// Strict parse + validation. Jobs with no "seed" key get their derived
/// seed filled in, so the returned manifest always round-trips to the
/// fully-explicit canonical form.
std::optional<CampaignManifest> parse_campaign_manifest(
    const common::Json& doc, std::string* error);

/// Parses manifest text (convenience over parse_json + the above).
std::optional<CampaignManifest> parse_campaign_manifest_text(
    std::string_view text, std::string* error);

/// "crc32:%08x" over `text` — the digest form used for journaled job
/// documents, pinned expectations and the manifest self-check.
std::string campaign_digest(std::string_view text);

}  // namespace politewifi::runtime::campaign
