// Campaign journal: the durable record of progress inside a campaign
// directory, two append-only logs and one derived view.
//
//   results.jsonl   — one compact record per completed job, flushed
//                     before the job counts as done. The only record of
//                     completion, and covered by the determinism
//                     contract: an interrupted campaign resumed to the
//                     end carries byte-identical records to one that ran
//                     straight through (order aside — the reduce sorts
//                     by id).
//   attempts.jsonl  — a header line (campaign, suite, manifest digest),
//                     then one line per attempt event: `claimed`
//                     (flushed before the child is forked), `failed`
//                     (before the backoff sleep) and `quarantined`. A
//                     completion has no event: its record is the
//                     completion.
//   state.json      — the per-job view (attempts, backoff schedule,
//                     status, log) the driver writes once per invocation,
//                     at exit. It is what replaying the two logs gives,
//                     is never read back, and is excluded from
//                     byte-identity guarantees.
//
// Each fact is written exactly once, so no crash can leave one file
// ahead of another: every line prefix of the two logs a SIGKILL can
// leave replays to a state the driver resumes from. Loading validates
// hard: duplicate ids, ids missing from the manifest, seed/experiment
// drift, digests that do not match the recorded document, fields of the
// wrong JSON kind, unknown events, attempt numbers that skip or go
// backwards, a record whose job was never claimed, and a header stamped
// by a different manifest are all errors naming the file and the
// offending id. A torn tail in either log (the writer died
// mid-append) is reported with its byte offset, after the lines before
// it are replayed: the driver refuses to resume over it and
// `pw_run --campaign-dir=DIR` shows it, both naming the `truncate -s`
// that drops the partial line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "runtime/campaign/manifest.h"

namespace politewifi::runtime::campaign {

/// One completed job as journaled in results.jsonl.
struct JobRecord {
  std::string id;
  std::string experiment;
  std::int64_t seed = 0;
  std::string digest;  // campaign_digest over the document text
  common::Json document;

  common::Json to_json() const;
};

/// Per-job progress: what replaying the logs gives, as state.json shows.
struct JobProgress {
  std::int64_t attempts = 0;
  std::vector<std::int64_t> backoff_ms;    // applied delays, dispatch order
  std::optional<std::string> digest;       // once completed
  std::optional<std::string> status;       // "completed" | "quarantined"
  std::optional<std::string> log;          // dir-relative last-attempt log
  /// The latest claim has not yet ended in a failed or quarantined
  /// event (replay bookkeeping; not part of state.json).
  bool claim_open = false;
};

/// One attempts.jsonl line after the header.
struct AttemptEvent {
  enum class Kind { kClaimed, kFailed, kQuarantined };
  Kind kind = Kind::kClaimed;
  std::string id;
  std::int64_t attempt = 0;
  std::string log;              // claimed: dir-relative attempt log
  std::string outcome;          // failed: how the attempt ended
  std::int64_t backoff_ms = 0;  // failed: delay before the re-dispatch
  std::string reason;           // quarantined: why

  common::Json to_json() const;
};

/// The attempt number a job's next claim carries: 1 after a quarantine
/// (a resume is an operator decision to try again with a fresh budget),
/// otherwise one past the last claim.
std::int64_t next_attempt(const JobProgress& progress);

/// The replay rule for one event, shared by the loader and the driver:
/// a claim must carry next_attempt() (starting a fresh entry after a
/// quarantine) and sets the log; failed and quarantined events must end
/// the open claim, the first appending its backoff and the second
/// setting the status. An event that does not follow is an error.
bool replay_attempt_event(const AttemptEvent& event, JobProgress* progress,
                          std::string* error);

/// A log whose last line is partial: the writer died mid-append, so by
/// the flush-then-act write order the line was never durable.
struct TornTail {
  std::string path;        // the log, as dir + "/results.jsonl" etc.
  std::size_t offset = 0;  // where the partial line starts

  /// The operator's repair: `truncate -s OFFSET PATH`.
  std::string repair_command() const;
};

/// Everything a resume needs to know about prior invocations.
struct CampaignJournal {
  std::map<std::string, JobRecord> completed;   // keyed by job id
  std::map<std::string, JobProgress> progress;  // replayed from the logs
  /// attempts.jsonl holds its header line, so appends need not write it.
  bool has_attempts_header = false;
  /// Torn tails, attempts.jsonl's first; the lines before each replay.
  std::vector<TornTail> torn;
};

/// Journal file names inside a campaign directory.
std::string results_path(const std::string& dir);
std::string attempts_path(const std::string& dir);
std::string state_path(const std::string& dir);

/// The exact bytes a job document is digested and journaled over: the
/// canonical dump plus the trailing newline pw_run writes to disk.
std::string document_text(const common::Json& document);

/// attempts.jsonl's first line: the campaign identity resume checks.
common::Json attempts_header(const CampaignManifest& manifest,
                             const std::string& manifest_digest);

/// Loads both logs, validates them against the manifest and replays
/// them into per-job progress. Missing files mean a fresh campaign
/// (empty journal, returns true); results.jsonl without attempts.jsonl
/// is a half-deleted directory or one an older pw_run wrote, and is
/// refused. A torn tail is not an error: it lands in `out->torn` and
/// the lines before it replay. state.json is never read.
bool load_campaign_journal(const std::string& dir,
                           const CampaignManifest& manifest,
                           const std::string& manifest_digest,
                           CampaignJournal* out, std::string* error);

/// Appends one completed-job record (durable once this returns true).
bool append_job_record(const std::string& dir, const JobRecord& record,
                       std::string* error);

/// Appends one attempts.jsonl line (the header or an event's to_json()),
/// flushed before this returns true.
bool append_attempt_line(const std::string& dir, const common::Json& line,
                         std::string* error);

/// Writes the state.json view atomically (temp file, rename over).
bool write_campaign_state(const std::string& dir,
                          const CampaignManifest& manifest,
                          const std::string& manifest_digest,
                          const std::map<std::string, JobProgress>& progress,
                          std::string* error);

}  // namespace politewifi::runtime::campaign
