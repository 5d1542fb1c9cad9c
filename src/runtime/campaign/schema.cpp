#include "runtime/campaign/schema.h"

#include <cstring>

namespace politewifi::runtime::campaign {

namespace {

constexpr SchemaField kCampaignSchema[] = {
    // --- manifest: the campaign input document ---------------------------
    {"manifest.base_seed",
     "campaign-level seed every job sub-seed is derived from"},
    {"manifest.campaign", "campaign name, [a-z0-9_.-]+, at most 64 chars"},
    {"manifest.jobs", "array of job entries, ids unique across the array"},
    {"manifest.policy", "fault-handling policy applied to every job"},
    {"manifest.suite_version",
     "free-form version tag stamped into every artifact"},

    // --- job: one entry of manifest.jobs ---------------------------------
    {"job.experiment", "registered experiment name the job runs"},
    {"job.id", "journal key for the job, [a-z0-9_.-]+, at most 64 chars"},
    {"job.params", "string-to-string map forwarded as --key=value flags"},
    {"job.seed",
     "effective sub-seed; derived from base_seed and id when absent"},
    {"job.smoke", "run the experiment's reduced smoke configuration"},
    {"job.expect_digest",
     "optional pinned crc32 digest the produced document must match"},

    // --- policy: manifest.policy -----------------------------------------
    {"policy.backoff_ms",
     "base re-dispatch delay, doubled on every further attempt"},
    {"policy.max_attempts",
     "attempts per job before it is quarantined, at least 1"},
    {"policy.timeout_ms",
     "per-attempt wall budget before the child is killed; 0 disables"},

    // --- record: one results.jsonl line ----------------------------------
    {"record.digest", "crc32 digest of the journaled document text"},
    {"record.document", "the job's full experiment document"},
    {"record.experiment", "experiment name, mirrored for self-description"},
    {"record.id", "id of the completed job"},
    {"record.seed", "effective sub-seed the job ran with"},

    // --- attempt: one attempts.jsonl line --------------------------------
    {"attempt.campaign", "header: campaign name, cross-checked on resume"},
    {"attempt.manifest_digest",
     "header: crc32 of the manifest; resume refuses a different manifest"},
    {"attempt.schema_version", "header: attempts.jsonl layout version, 1"},
    {"attempt.suite_version",
     "header: suite_version, cross-checked on resume"},
    {"attempt.event", "one of claimed, failed or quarantined"},
    {"attempt.id", "id of the job the event is about"},
    {"attempt.attempt", "the attempt number the event is about"},
    {"attempt.log", "claimed: campaign-dir-relative log of this attempt"},
    {"attempt.outcome", "failed: crashed, timeout or no document"},
    {"attempt.backoff_ms", "failed: delay before the job is re-dispatched"},
    {"attempt.reason", "quarantined: why the job was quarantined"},

    // --- state: the state.json view --------------------------------------
    {"state.campaign", "campaign name echoed from the manifest"},
    {"state.jobs", "per-job progress map keyed by job id"},
    {"state.manifest_digest", "crc32 of the manifest the logs belong to"},
    {"state.schema_version", "state.json layout version, currently 1"},
    {"state.suite_version", "suite_version echoed from the manifest"},

    // --- state.jobs: one per-job entry of state.jobs ---------------------
    {"state.jobs.attempts", "attempts dispatched so far for the job"},
    {"state.jobs.backoff_ms",
     "re-dispatch delays already applied, in dispatch order"},
    {"state.jobs.digest", "digest of the journaled document, once completed"},
    {"state.jobs.status", "one of completed or quarantined"},
    {"state.jobs.log", "campaign-dir-relative log of the last attempt"},

    // --- doc: the final reduced campaign document ------------------------
    {"doc.base_seed", "manifest base_seed echoed for self-description"},
    {"doc.campaign", "campaign name echoed from the manifest"},
    {"doc.failed", "logical OR of the per-job documents' failed flags"},
    {"doc.jobs",
     "per-job results sorted by id, each shaped like a results.jsonl record"},
    {"doc.manifest_digest", "crc32 of the manifest that produced the runs"},
    {"doc.metrics",
     "merged metrics blocks, present only when every job carried one"},
    {"doc.suite_version", "suite_version echoed from the manifest"},
    {"doc.summary", "job counts: jobs run and failed_jobs among them"},
};

}  // namespace

std::span<const SchemaField> campaign_schema() { return kCampaignSchema; }

bool is_campaign_schema_field(const char* dotted) {
  for (const SchemaField& field : kCampaignSchema) {
    if (std::strcmp(field.name, dotted) == 0) return true;
  }
  return false;
}

}  // namespace politewifi::runtime::campaign
