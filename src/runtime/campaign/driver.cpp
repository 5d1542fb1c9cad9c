#include "runtime/campaign/driver.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/json_parse.h"
#include "common/jsonl.h"
#include "obs/metrics.h"
#include "runtime/campaign/journal.h"
#include "runtime/campaign/manifest.h"
#include "runtime/city_reduce.h"
#include "runtime/experiments/all.h"
#include "runtime/registry.h"
#include "runtime/run_context.h"
#include "runtime/runner.h"

namespace politewifi::runtime::campaign {

namespace {

namespace fs = std::filesystem;
using common::Json;

/// How one child attempt ended.
enum class AttemptOutcome {
  kDocument,   // exited 0/1 and left a parseable document
  kCrashed,    // signaled, spawn failure, or abnormal exit
  kTimeout,    // exceeded policy.timeout_ms and was SIGKILLed
  kNoDocument  // exited but the document is missing or unparseable
};

const char* outcome_name(AttemptOutcome outcome) {
  switch (outcome) {
    case AttemptOutcome::kDocument: return "document";
    case AttemptOutcome::kCrashed: return "crashed";
    case AttemptOutcome::kTimeout: return "timeout";
    case AttemptOutcome::kNoDocument: return "no document";
  }
  return "?";
}

/// Spawns one attempt: fork, redirect stdout+stderr into `log_path`,
/// exec `argv`. Fault injection happens between fork and exec with
/// async-signal-safe calls only. Returns the outcome; fills `status`
/// with the raw wait status for diagnostics.
AttemptOutcome spawn_attempt(const std::vector<std::string>& argv,
                             const std::string& log_path, bool fault_kill,
                             bool fault_hang, std::int64_t timeout_ms,
                             int* status) {
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    if (log_fd >= 0) ::close(log_fd);
    *status = -1;
    return AttemptOutcome::kCrashed;
  }
  if (pid == 0) {
    // Child: async-signal-safe territory until exec.
    if (fault_kill) ::raise(SIGKILL);
    if (fault_hang) {
      for (;;) ::pause();
    }
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::close(log_fd);
    }
    ::execvp(cargv[0], cargv.data());
    ::_exit(127);
  }
  if (log_fd >= 0) ::close(log_fd);

  // Timeout by counted sleep: src/runtime is wall-clock-free by lint,
  // so the budget is charged with the time slept between polls. Each
  // nap is a quarter of the time slept so far, from 1 ms up to 10 ms:
  // a child is reaped within about a quarter of its run time, and a
  // long one costs at most 100 polls a second.
  std::int64_t slept_ms = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid, status, timeout_ms > 0 ? WNOHANG : 0);
    if (done == pid) break;
    if (done < 0) {
      *status = -1;
      return AttemptOutcome::kCrashed;
    }
    if (slept_ms >= timeout_ms) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, status, 0);
      return AttemptOutcome::kTimeout;
    }
    const std::int64_t nap_ms = std::clamp<std::int64_t>(slept_ms / 4, 1, 10);
    std::this_thread::sleep_for(std::chrono::milliseconds(nap_ms));
    slept_ms += nap_ms;
  }
  if (!WIFEXITED(*status)) return AttemptOutcome::kCrashed;
  const int code = WEXITSTATUS(*status);
  // Exit 1 still writes a document (the experiment ran and reported
  // failure, which the reduce ORs into `failed`); anything else never
  // produced one.
  if (code != 0 && code != 1) return AttemptOutcome::kNoDocument;
  return AttemptOutcome::kDocument;
}

/// Shared driver state, all mutated under one mutex: the queue, the
/// per-job progress view, the journaled records and the dispatch
/// budget. Journal appends happen under the lock, so each log's line
/// order is the order in which the driver acted.
struct DriverState {
  std::mutex mu;
  /// Idle workers wait here: signalled on a re-queue, on the last
  /// in-flight attempt ending, on `stopped` and on `io_failed`.
  std::condition_variable wake;
  std::deque<std::size_t> queue;  // indices into manifest.jobs
  int inflight = 0;
  int budget = 0;  // remaining dispatches; <0 = unlimited
  bool stopped = false;           // budget ran out with work remaining
  bool io_failed = false;
  bool has_attempts_header = false;
  bool journaled = false;  // this invocation appended an attempt event
  std::map<std::string, JobProgress> progress;
  std::map<std::string, JobRecord> records;
  std::vector<std::string> quarantine_log;  // narration lines
};

/// The `--campaign` reduce step: one campaign document over the
/// journaled records. Their documents were read back from disk, so
/// every field read here is kind-checked first: a wrong kind is a named
/// error (exit 1), never an accessor abort.
int reduce_campaign(const CampaignManifest& manifest,
                    const CampaignDriverOptions& options,
                    const std::string& manifest_digest,
                    const std::map<std::string, JobRecord>& records) {
  const std::size_t total = manifest.jobs.size();
  Json doc = Json::object();
  doc["base_seed"] = manifest.base_seed;
  doc["campaign"] = manifest.campaign;
  doc["manifest_digest"] = manifest_digest;
  doc["suite_version"] = manifest.suite_version;
  bool failed = false;
  std::int64_t failed_jobs = 0;
  Json jobs_doc = Json::array();
  std::vector<NamedBlock> metrics_blocks;
  for (const auto& [id, record] : records) {  // map order = id order
    const Json* job_failed = record.document.find("failed");
    if (job_failed != nullptr && job_failed->kind() != Json::Kind::kBool) {
      std::fprintf(stderr,
                   "pw_run: job \"%s\": document field \"failed\" must be "
                   "a bool\n",
                   id.c_str());
      return 1;
    }
    if (job_failed != nullptr && job_failed->as_bool()) {
      failed = true;
      ++failed_jobs;
    }
    if (const Json* block = record.document.find("metrics")) {
      metrics_blocks.emplace_back("job \"" + id + "\"", block);
    }
    jobs_doc.push_back(record.to_json());
  }
  doc["failed"] = failed;
  doc["jobs"] = std::move(jobs_doc);
  Json summary = Json::object();
  summary["failed_jobs"] = failed_jobs;
  summary["jobs"] = static_cast<std::int64_t>(total);
  doc["summary"] = std::move(summary);

  int exit_code = failed ? 1 : 0;
  if (!metrics_blocks.empty() && metrics_blocks.size() != total) {
    // A metrics run resumed without --metrics (or vice versa): the
    // merged block would silently undercount, so refuse instead.
    std::fprintf(stderr,
                 "pw_run: %zu of %zu job documents carry a metrics block; "
                 "resume with the same --metrics setting the campaign "
                 "started with\n",
                 metrics_blocks.size(), total);
    return 1;
  }
  if (!metrics_blocks.empty()) {
    std::string merge_error;
    auto merged = merge_metrics_blocks(metrics_blocks, &merge_error);
    if (!merged.has_value()) {
      std::fprintf(stderr, "pw_run: campaign metrics merge failed: %s\n",
                   merge_error.c_str());
      return 1;
    }
    if (options.metrics_arg.has_value() &&
        !write_output("metrics", "campaign.metrics.json",
                      merged->dump() + "\n", *options.metrics_arg,
                      /*force_dir=*/false)) {
      exit_code = 1;
    }
    doc["metrics"] = std::move(*merged);
  } else if (options.metrics_arg.has_value()) {
    std::fprintf(stderr,
                 "pw_run: --metrics asked but the job documents carry no "
                 "metrics block (campaign was journaled without "
                 "--metrics)\n");
    exit_code = 1;
  }

  std::printf("Campaign '%s': %zu/%zu jobs completed (%lld reported "
              "failure)\n",
              manifest.campaign.c_str(), records.size(), total,
              static_cast<long long>(failed_jobs));
  if (options.json_arg.has_value() &&
      !write_output("json", "campaign.json", doc.dump() + "\n",
                    *options.json_arg, /*force_dir=*/false)) {
    exit_code = 1;
  }
  return exit_code;
}

}  // namespace

int run_campaign_driver(const CampaignManifest& manifest,
                        const CampaignDriverOptions& options,
                        const CampaignReducer& reduce) {
  register_builtin_experiments();
  std::string error;
  // The digest is over the canonical form, so an author's formatting
  // (or omitted derivable seeds) never splits a campaign identity.
  const std::string canonical_text = manifest.to_json().dump() + "\n";
  const std::string manifest_digest = campaign_digest(canonical_text);

  // Fail fast: every job must resolve against its experiment spec
  // before anything spawns, not D attempts deep into the queue.
  for (const CampaignJob& job : manifest.jobs) {
    const auto experiment = ExperimentRegistry::instance().create(
        job.experiment);
    if (experiment == nullptr) {
      std::fprintf(stderr, "pw_run: job \"%s\": unknown experiment '%s'\n",
                   job.id.c_str(), job.experiment.c_str());
      return 2;
    }
    std::vector<common::Flag> flags;
    flags.push_back({"seed", std::to_string(job.seed)});
    for (const auto& [key, value] : job.params) {
      flags.push_back({key, value});
    }
    ResolvedRun resolved;
    if (!resolve_run(experiment->spec(), flags, job.smoke, &resolved,
                     &error)) {
      std::fprintf(stderr, "pw_run: job \"%s\": %s\n", job.id.c_str(),
                   error.c_str());
      return 2;
    }
  }

  std::error_code ec;
  fs::create_directories(options.dir + "/logs", ec);
  fs::create_directories(options.dir + "/scratch", ec);
  if (ec) {
    std::fprintf(stderr, "pw_run: cannot create campaign directory %s\n",
                 options.dir.c_str());
    return 1;
  }
  DriverState state;
  {
    CampaignJournal journal;
    if (!load_campaign_journal(options.dir, manifest, manifest_digest,
                               &journal, &error)) {
      std::fprintf(stderr, "pw_run: %s\n", error.c_str());
      return 1;
    }
    state.records = std::move(journal.completed);
    state.progress = std::move(journal.progress);
    state.has_attempts_header = journal.has_attempts_header;
  }

  // Keep a canonical manifest copy next to the journal it explains —
  // written atomically, and rewritten whenever the bytes on disk drift
  // from the canonical text (a crash mid-write on an earlier run
  // self-repairs here). Ordered after the journal load so a manifest
  // that does not belong to this directory is refused above before it
  // could clobber the copy.
  const std::string copy_path = options.dir + "/manifest.json";
  std::string existing_copy;
  std::string io_error;
  if (!common::read_whole_file(copy_path, &existing_copy, &io_error) ||
      existing_copy != canonical_text) {
    if (!common::write_file_atomic(copy_path, canonical_text, &io_error)) {
      std::fprintf(stderr, "pw_run: cannot write %s\n", copy_path.c_str());
      return 1;
    }
  }

  // Quarantined jobs re-enter the queue too: their next claim is
  // attempt 1, a fresh budget (next_attempt).
  for (std::size_t i = 0; i < manifest.jobs.size(); ++i) {
    if (state.records.count(manifest.jobs[i].id) == 0) {
      state.queue.push_back(i);
    }
  }
  state.budget = options.faults.stop_after > 0 ? options.faults.stop_after
                                               : -1;
  PW_GAUGE_MAX(kCampaignQueueDepthPeak,
               static_cast<std::int64_t>(state.queue.size()));

  const std::size_t total = manifest.jobs.size();
  const std::size_t already = state.records.size();
  std::printf("Campaign '%s' (suite %s): %zu jobs, %zu already journaled, "
              "%zu queued across %d processes\n",
              manifest.campaign.c_str(), manifest.suite_version.c_str(),
              total, already, state.queue.size(),
              std::max(1, options.processes));

  // Latches a journal I/O failure; call with state.mu held. The error
  // is printed once and every worker stops claiming jobs: a campaign
  // that can no longer journal must not keep spawning work it would
  // lose.
  const auto fail_io_locked = [&] {
    std::fprintf(stderr, "pw_run: %s\n", error.c_str());
    state.io_failed = true;
    state.wake.notify_all();
  };

  // Appends one attempt event (after the header, on a directory's
  // first) and applies it to the in-memory view by the loader's replay
  // rule, so the state.json written at exit is what replaying the logs
  // gives. Call with state.mu held; false once the append failed.
  const auto journal_event_locked = [&](const AttemptEvent& event) {
    if (!state.has_attempts_header) {
      if (!append_attempt_line(options.dir,
                               attempts_header(manifest, manifest_digest),
                               &error)) {
        fail_io_locked();
        return false;
      }
      state.has_attempts_header = true;
    }
    if (!append_attempt_line(options.dir, event.to_json(), &error)) {
      fail_io_locked();
      return false;
    }
    state.journaled = true;
    std::string replay_error;
    PW_CHECK(replay_attempt_event(event, &state.progress[event.id],
                                  &replay_error),
             "%s", replay_error.c_str());
    return true;
  };

  const auto worker = [&] {
    std::unique_lock<std::mutex> lock(state.mu);
    for (;;) {
      // Idle until there is work or none can come: the queue refills
      // only when an in-flight attempt re-queues its job.
      state.wake.wait(lock, [&] {
        return state.io_failed || state.stopped || !state.queue.empty() ||
               state.inflight == 0;
      });
      if (state.io_failed || state.stopped || state.queue.empty()) return;
      if (state.budget == 0) {
        state.stopped = true;
        state.wake.notify_all();
        return;
      }
      if (state.budget > 0) --state.budget;
      const std::size_t index = state.queue.front();
      state.queue.pop_front();
      ++state.inflight;
      const CampaignJob& job = manifest.jobs[index];
      AttemptEvent claim;
      claim.kind = AttemptEvent::Kind::kClaimed;
      claim.id = job.id;
      const auto known = state.progress.find(job.id);
      claim.attempt =
          known == state.progress.end() ? 1 : next_attempt(known->second);
      claim.log =
          "logs/" + job.id + ".attempt" + std::to_string(claim.attempt) +
          ".log";
      if (!journal_event_locked(claim)) {
        // The claim itself could not be journaled: release it unstarted
        // instead of running a job the journal will lose.
        --state.inflight;
        return;
      }
      lock.unlock();

      const int attempt = static_cast<int>(claim.attempt);
      const std::string doc_path =
          options.dir + "/scratch/" + job.id + ".json";
      const std::string log_path = options.dir + "/" + claim.log;
      std::vector<std::string> argv;
      argv.push_back(options.argv0);
      argv.push_back(job.experiment);
      argv.push_back("--seed=" + std::to_string(job.seed));
      if (job.smoke) argv.push_back("--smoke");
      for (const auto& [key, value] : job.params) {
        argv.push_back("--" + key + "=" + value);
      }
      argv.push_back("--json=" + doc_path);
      if (options.metrics_arg.has_value()) {
        // The child's metrics file stays in scratch/ (removed on
        // completion); its document's embedded block is what reduces.
        argv.push_back("--metrics=" + doc_path + ".metrics.json");
      }

      int wait_status = 0;
      AttemptOutcome outcome = spawn_attempt(
          argv, log_path,
          options.faults.kill.count({job.id, attempt}) != 0,
          options.faults.hang.count({job.id, attempt}) != 0,
          manifest.policy.timeout_ms, &wait_status);

      std::string doc_text;
      std::optional<Json> document;
      if (outcome == AttemptOutcome::kDocument) {
        std::string error;  // either failure is kNoDocument
        if (common::read_whole_file(doc_path, &doc_text, &error)) {
          document = common::parse_json(doc_text, &error);
        }
        if (!document.has_value()) outcome = AttemptOutcome::kNoDocument;
      }

      lock.lock();
      JobProgress& progress = state.progress[job.id];
      AttemptEvent end;
      end.id = job.id;
      end.attempt = claim.attempt;
      bool requeue = false;
      if (document.has_value()) {
        JobRecord record;
        record.id = job.id;
        record.experiment = job.experiment;
        record.seed = job.seed;
        record.document = std::move(*document);
        record.digest = campaign_digest(document_text(record.document));
        if (job.expect_digest.has_value() &&
            *job.expect_digest != record.digest) {
          // Deterministic contradiction: retrying reproduces the same
          // bytes, so this quarantines on the spot.
          PW_COUNT(kCampaignJobsQuarantined);
          end.kind = AttemptEvent::Kind::kQuarantined;
          end.reason = "digest " + record.digest +
                       " contradicts pinned expect_digest " +
                       *job.expect_digest;
          state.quarantine_log.push_back(job.id + ": " + end.reason);
          journal_event_locked(end);
        } else if (!append_job_record(options.dir, record, &error)) {
          fail_io_locked();
        } else {
          // The record is the completion: no attempt event follows it.
          PW_COUNT(kCampaignJobsCompleted);
          progress.status = "completed";
          progress.digest = record.digest;
          progress.claim_open = false;
          state.records[job.id] = std::move(record);
          std::error_code cleanup;
          fs::remove(doc_path, cleanup);
          fs::remove(doc_path + ".metrics.json", cleanup);
        }
      } else if (progress.attempts >= manifest.policy.max_attempts) {
        // Failed attempt with the budget spent: quarantine.
        PW_COUNT(kCampaignJobsQuarantined);
        end.kind = AttemptEvent::Kind::kQuarantined;
        end.reason = std::string(outcome_name(outcome)) + " after " +
                     std::to_string(progress.attempts) + " attempts";
        state.quarantine_log.push_back(job.id + ": " + end.reason +
                                       "; last log " + log_path);
        journal_event_locked(end);
      } else {
        // Failed attempt: retry after a deterministic exponential
        // backoff, base << (attempt - 1), shift capped so a deep retry
        // chain cannot overflow.
        PW_COUNT(kCampaignJobsRetried);
        end.kind = AttemptEvent::Kind::kFailed;
        end.outcome = outcome_name(outcome);
        end.backoff_ms = manifest.policy.backoff_ms
                         << std::min<std::int64_t>(progress.attempts - 1, 10);
        if (journal_event_locked(end)) {
          lock.unlock();
          std::this_thread::sleep_for(
              std::chrono::milliseconds(end.backoff_ms));
          lock.lock();
          state.queue.push_back(index);
          requeue = true;
        }
      }
      --state.inflight;
      if (requeue || state.inflight == 0) state.wake.notify_all();
      if (state.io_failed) return;
    }
  };

  const int pool = std::clamp<int>(options.processes, 1,
                                   static_cast<int>(total));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(pool));
  for (int i = 0; i < pool; ++i) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  // The state.json view, written once per invocation on every exit
  // path, and only when this invocation journaled an event: re-invoking
  // a finished campaign writes nothing.
  if (state.journaled &&
      !write_campaign_state(options.dir, manifest, manifest_digest,
                            state.progress, &error)) {
    std::fprintf(stderr, "pw_run: %s\n", error.c_str());
    state.io_failed = true;
  }
  if (state.io_failed) {
    std::fprintf(stderr, "pw_run: campaign aborted on journal I/O failure\n");
    return 1;
  }
  for (const std::string& line : state.quarantine_log) {
    std::fprintf(stderr, "pw_run: quarantined %s\n", line.c_str());
  }
  // This invocation's quarantines: an earlier one was re-queued and is
  // pending until its next claim.
  const std::size_t completed = state.records.size();
  const std::size_t quarantined = state.quarantine_log.size();
  if (state.stopped && completed + quarantined < total) {
    std::printf("Campaign '%s': checkpoint after %zu/%zu jobs; resume "
                "with the same command\n",
                manifest.campaign.c_str(), completed, total);
    return 3;
  }
  if (quarantined > 0) {
    std::printf("Campaign '%s': %zu/%zu jobs completed, %zu quarantined "
                "(see logs/); no campaign document produced\n",
                manifest.campaign.c_str(), completed, total, quarantined);
    return 1;
  }
  return reduce(manifest_digest, state.records);
}

int run_campaign_file(const std::string& manifest_path,
                      const CampaignDriverOptions& options) {
  std::string manifest_text;
  std::string error;
  if (!common::read_whole_file(manifest_path, &manifest_text, &error)) {
    std::fprintf(stderr, "pw_run: cannot read manifest %s\n",
                 manifest_path.c_str());
    return 2;
  }
  const auto manifest = parse_campaign_manifest_text(manifest_text, &error);
  if (!manifest.has_value()) {
    std::fprintf(stderr, "pw_run: %s\n", error.c_str());
    return 2;
  }
  return run_campaign_driver(
      *manifest, options,
      [&](const std::string& digest,
          const std::map<std::string, JobRecord>& records) {
        return reduce_campaign(*manifest, options, digest, records);
      });
}

}  // namespace politewifi::runtime::campaign
