// Campaign driver: streams a manifest's job queue through a pool of
// child `pw_run` processes with checkpoint/resume and fault handling.
// It is the tree's one process pool; what a finished campaign reduces
// into is the caller's reduce step: the campaign document for
// `--campaign` (run_campaign_file), the single-process city survey for
// `--city` (runtime/city_reduce.h).
//
// Execution discipline (CAMPAIGNS.md is the authoritative contract):
//
//   * Jobs already journaled in results.jsonl are skipped on entry;
//     their digests were cross-checked by the journal loader, so a
//     resumed campaign finishes with byte-identical job records to one
//     that never stopped. Attempt counts and backoff schedules resume
//     from the replayed attempts.jsonl.
//   * The two append-only logs are the only per-event writes, each
//     line flushed under the pool mutex before the driver acts on it:
//     a `claimed` line before the fork, a `failed` line before the
//     backoff sleep, a `quarantined` line, and the results.jsonl record
//     as the completion. state.json, the per-job view, is written once
//     after the pool joins, and only if this invocation journaled an
//     event.
//   * Every attempt runs in a fork/exec child whose stdout+stderr land
//     in logs/<id>.attempt<k>.log. A child that crashes, exceeds the
//     per-attempt timeout (SIGKILLed), exits nonzero without a
//     document, or writes an unparseable document is re-dispatched
//     after a deterministic exponential backoff — base policy.backoff_ms
//     doubled per further attempt — until policy.max_attempts is
//     exhausted, which quarantines the job (campaign continues; exit
//     code reports the quarantine). Idle workers wait on a condition
//     variable for a re-queue or the end of the last attempt in flight.
//   * A document that contradicts a pinned expect_digest quarantines
//     immediately: determinism failures do not resolve by retrying.
//   * Timeouts are measured by counting the time slept between
//     waitpid polls (each nap a quarter of the time slept so far, 1 to
//     10 ms), never by clock reads (src/runtime is wall-clock-free by
//     lint).
//
// Fault injection (CampaignFaults) exists for tests and the CI smoke:
// a (id, attempt) in `kill` makes that child SIGKILL itself before
// exec; `hang` makes it sleep forever (exercising the timeout path);
// `stop_after` bounds how many dispatches this invocation may start,
// making "interrupt at a deterministic checkpoint" a first-class,
// schedule-independent operation (exit code 3 = stopped with work
// remaining, resume to continue).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "runtime/campaign/journal.h"
#include "runtime/campaign/manifest.h"

namespace politewifi::runtime::campaign {

struct CampaignFaults {
  /// (job id, attempt number) pairs whose child SIGKILLs itself pre-exec.
  std::set<std::pair<std::string, int>> kill;
  /// (job id, attempt number) pairs whose child hangs until the timeout.
  std::set<std::pair<std::string, int>> hang;
  /// Maximum dispatches this invocation may start (0 = unlimited). The
  /// deterministic interrupt point for checkpoint/resume tests.
  int stop_after = 0;
};

struct CampaignDriverOptions {
  std::string argv0;  // the pw_run binary children re-exec
  std::string dir;    // campaign directory (journal, logs, scratch)
  int processes = 4;  // worker pool width
  /// --json forwarded: where the reduced document goes.
  std::optional<std::string> json_arg;
  /// --metrics forwarded: children run --metrics, and the reduce step
  /// writes the merged block here (and embeds it in its document).
  std::optional<std::string> metrics_arg;
  CampaignFaults faults;
};

/// The reduce step of a finished campaign. Called once, only when every
/// job has a journaled record, with the campaign's manifest digest and
/// the records keyed (so iterated) by job id. Its return value is the
/// invocation's exit code.
using CampaignReducer = std::function<int(
    const std::string& manifest_digest,
    const std::map<std::string, JobRecord>& records)>;

/// Runs (or resumes) a parsed campaign, then hands the records to
/// `reduce`. Exit codes: the reducer's once every job completed; 1
/// quarantined jobs or an I/O / validation failure; 2 usage (a job that
/// does not resolve against its experiment); 3 interrupted at the
/// stop_after checkpoint with work remaining.
int run_campaign_driver(const CampaignManifest& manifest,
                        const CampaignDriverOptions& options,
                        const CampaignReducer& reduce);

/// `pw_run --campaign=MANIFEST`: loads the manifest (2 when it cannot
/// be read or parsed) and reduces the records into the campaign
/// document (CAMPAIGNS.md); exit 1 when a job reported failure.
int run_campaign_file(const std::string& manifest_path,
                      const CampaignDriverOptions& options);

/// `pw_run --campaign-dir=DIR` alone: replays DIR's journal against its
/// manifest copy, as a resume would, and prints each job's state on
/// stdout. Writes nothing. Exit codes: 0; 1 quarantined jobs, a torn
/// tail or a journal the loader refuses; 2 no valid DIR/manifest.json.
int report_campaign_status(const std::string& dir);

}  // namespace politewifi::runtime::campaign
