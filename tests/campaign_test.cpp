// Campaign runtime tests: manifest schema strictness and canonical
// round-trips, the Python/C++ seed-derivation and formatting agreement
// (pinned against the tools/pw_campaign.py-authored golden), JSONL
// journal semantics (torn tails, duplicate and corrupt records), the
// attempt-log replay rules, and the driver's end-to-end determinism
// contract — straight runs, SIGKILLed children, checkpoint/resume,
// quarantine and a driver killed at any journal line boundary all
// converge on byte-identical campaign documents (CAMPAIGNS.md). A
// seeded mutation loop feeds corrupted manifests and logs through the
// loaders. End-to-end cases spawn the real pw_run binary (PW_PW_RUN)
// through the in-process driver, so the fork/exec, timeout and journal
// paths are the ones production takes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/json_parse.h"
#include "common/jsonl.h"
#include "obs/metrics.h"
#include "runtime/campaign/driver.h"
#include "runtime/campaign/journal.h"
#include "runtime/campaign/manifest.h"
#include "runtime/campaign/schema.h"
#include "temp_dir.h"

namespace politewifi::runtime::campaign {
namespace {

// Counter-assertion tests skip under -DPW_METRICS=OFF, where the obs
// macros compile to no-ops by design (same discipline as obs_test.cpp).
#if PW_OBS_ON
#define PW_REQUIRE_OBS_ON() ((void)0)
#else
#define PW_REQUIRE_OBS_ON() \
  GTEST_SKIP() << "instrumentation compiled out (PW_METRICS=OFF)"
#endif

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

constexpr const char* kTempPrefix = "pw_campaign_test";

/// A minimal fast manifest: quickstart smoke jobs, distinct params.
std::string test_manifest_text(std::int64_t timeout_ms = 0,
                               std::int64_t max_attempts = 3) {
  CampaignManifest manifest;
  manifest.campaign = "test";
  manifest.suite_version = "t1";
  manifest.base_seed = 77;
  manifest.policy.backoff_ms = 1;
  manifest.policy.max_attempts = max_attempts;
  manifest.policy.timeout_ms = timeout_ms;
  CampaignJob a;
  a.id = "a-quickstart";
  a.experiment = "quickstart";
  a.smoke = true;
  a.seed = derive_job_seed(manifest.base_seed, a.id);
  CampaignJob b;
  b.id = "b-quickstart";
  b.experiment = "quickstart";
  b.params["watch_ms"] = "40";
  b.smoke = true;
  b.seed = derive_job_seed(manifest.base_seed, b.id);
  manifest.jobs = {a, b};
  return manifest.to_json().dump() + "\n";
}

CampaignDriverOptions driver_options(const std::string& root,
                                     const std::string& name,
                                     int processes) {
  CampaignDriverOptions options;
  options.argv0 = PW_PW_RUN;
  options.dir = root + "/" + name;
  options.processes = processes;
  options.json_arg = root + "/" + name + ".out.json";
  return options;
}

/// The `--campaign` path over `<dir>.json`, the manifest each test
/// writes next to its campaign directory.
int run_driver(const CampaignDriverOptions& options) {
  return run_campaign_file(options.dir + ".json", options);
}

/// test_manifest_text() plus a third job, for runs whose logs need
/// lines from more than one completed job after a retry.
std::string three_job_manifest_text() {
  std::string error;
  auto manifest = parse_campaign_manifest_text(test_manifest_text(), &error);
  EXPECT_TRUE(manifest.has_value()) << error;
  CampaignJob c = manifest->jobs[0];
  c.id = "c-quickstart";
  c.params["watch_ms"] = "20";
  c.seed = derive_job_seed(manifest->base_seed, c.id);
  manifest->jobs.push_back(c);
  return manifest->to_json().dump() + "\n";
}

/// The lines of `text`, each with its newline (the last one may lack it).
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t newline = text.find('\n', start);
    const std::size_t end =
        newline == std::string::npos ? text.size() : newline + 1;
    lines.push_back(text.substr(start, end - start));
    start = end;
  }
  return lines;
}

/// The first `n` lines of `text`.
std::string first_lines(const std::string& text, std::size_t n) {
  std::string out;
  const std::vector<std::string> lines = lines_of(text);
  for (std::size_t i = 0; i < n && i < lines.size(); ++i) out += lines[i];
  return out;
}

// ------------------------------------------------------- manifest ----

TEST(CampaignManifestTest, RoundTripIsByteStable) {
  const std::string text = test_manifest_text();
  std::string error;
  auto manifest = parse_campaign_manifest_text(text, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  EXPECT_EQ(manifest->to_json().dump() + "\n", text);
}

TEST(CampaignManifestTest, DerivesOmittedSeedsToCanonicalForm) {
  const std::string text =
      "{\"base_seed\": 77, \"campaign\": \"test\", \"jobs\": ["
      "{\"experiment\": \"quickstart\", \"id\": \"a-quickstart\"}],"
      "\"policy\": {\"backoff_ms\": 1, \"max_attempts\": 3, "
      "\"timeout_ms\": 0}, \"suite_version\": \"t1\"}";
  std::string error;
  auto manifest = parse_campaign_manifest_text(text, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  EXPECT_EQ(manifest->jobs[0].seed, derive_job_seed(77, "a-quickstart"));
  // Re-parsing the canonical form (seed now explicit) is a fixed point.
  const std::string canonical = manifest->to_json().dump() + "\n";
  auto again = parse_campaign_manifest_text(canonical, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->to_json().dump() + "\n", canonical);
}

TEST(CampaignManifestTest, SeedDerivationIsMaskedNonNegative) {
  // A label landing in the top bit of splitmix64 must fold into
  // --seed's accepted range rather than serialize negative.
  for (const char* id : {"a", "b", "crash-7", "zz.zz", "x_1"}) {
    EXPECT_GE(derive_job_seed(0, id), 0) << id;
    EXPECT_GE(derive_job_seed((1LL << 62), id), 0) << id;
  }
  // Different ids, different streams (the fnv1a64 label hash).
  EXPECT_NE(derive_job_seed(77, "a-quickstart"),
            derive_job_seed(77, "b-quickstart"));
}

TEST(CampaignManifestTest, RejectsMalformedManifests) {
  const struct {
    const char* patch;  // replaces the jobs entry / a field
    const char* expect;
  } kCases[] = {
      {"{\"base_seed\": 1, \"campaign\": \"x\", \"jobs\": [], \"policy\": "
       "{\"backoff_ms\": 1, \"max_attempts\": 1, \"timeout_ms\": 0}, "
       "\"suite_version\": \"v\"}",
       "jobs is empty"},
      {"{\"base_seed\": 1, \"campaign\": \"X\", \"jobs\": [{\"experiment\": "
       "\"q\", \"id\": \"a\"}], \"policy\": {\"backoff_ms\": 1, "
       "\"max_attempts\": 1, \"timeout_ms\": 0}, \"suite_version\": \"v\"}",
       "manifest.campaign"},
      {"{\"base_seed\": 1, \"campaign\": \"x\", \"jobs\": [{\"experiment\": "
       "\"q\", \"id\": \"a\"}, {\"experiment\": \"q\", \"id\": \"a\"}], "
       "\"policy\": {\"backoff_ms\": 1, \"max_attempts\": 1, "
       "\"timeout_ms\": 0}, \"suite_version\": \"v\"}",
       "duplicate id"},
      {"{\"base_seed\": 1, \"campaign\": \"x\", \"jobs\": [{\"experiment\": "
       "\"q\", \"id\": \"a\", \"params\": {\"k\": 1}}], \"policy\": "
       "{\"backoff_ms\": 1, \"max_attempts\": 1, \"timeout_ms\": 0}, "
       "\"suite_version\": \"v\"}",
       "must be a string"},
      {"{\"base_seed\": 1, \"campaign\": \"x\", \"jobs\": [{\"experiment\": "
       "\"q\", \"id\": \"a\", \"typo\": 1}], \"policy\": {\"backoff_ms\": 1, "
       "\"max_attempts\": 1, \"timeout_ms\": 0}, \"suite_version\": \"v\"}",
       "unknown key"},
      {"{\"base_seed\": 1, \"campaign\": \"x\", \"jobs\": [{\"experiment\": "
       "\"q\", \"id\": \"a\"}], \"policy\": {\"backoff_ms\": 1, "
       "\"max_attempts\": 0, \"timeout_ms\": 0}, \"suite_version\": \"v\"}",
       "max_attempts"},
      {"{\"base_seed\": 1, \"campaign\": \"x\", \"jobs\": [{\"experiment\": "
       "\"q\", \"id\": \"a\", \"expect_digest\": \"sha1:ffff\"}], "
       "\"policy\": {\"backoff_ms\": 1, \"max_attempts\": 1, "
       "\"timeout_ms\": 0}, \"suite_version\": \"v\"}",
       "expect_digest"},
  };
  for (const auto& test_case : kCases) {
    std::string error;
    EXPECT_FALSE(
        parse_campaign_manifest_text(test_case.patch, &error).has_value())
        << test_case.patch;
    EXPECT_NE(error.find(test_case.expect), std::string::npos) << error;
  }
}

TEST(CampaignManifestTest, PythonGoldenMatchesCppCanonicalForm) {
  // tests/goldens/campaign/manifest.json is authored by
  // tools/pw_campaign.py init; the C++ round-trip reproducing its exact
  // bytes pins the Python/C++ agreement on canonical formatting AND on
  // the splitmix64/fnv1a64 seed derivation (the golden's seeds were
  // derived in Python).
  const std::string golden = read_text(
      std::string(PW_REPO_ROOT) + "/tests/goldens/campaign/manifest.json");
  ASSERT_FALSE(golden.empty());
  std::string error;
  auto manifest = parse_campaign_manifest_text(golden, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  EXPECT_EQ(manifest->to_json().dump() + "\n", golden);
  for (const CampaignJob& job : manifest->jobs) {
    EXPECT_EQ(job.seed, derive_job_seed(manifest->base_seed, job.id))
        << job.id;
  }
}

// ---------------------------------------------------- jsonl journal --

TEST(JsonlTest, CompactDumpIsAParseFixedPoint) {
  const std::string text = test_manifest_text();
  auto doc = common::parse_json(text);
  ASSERT_TRUE(doc.has_value());
  const std::string compact = doc->dump_compact();
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  auto reparsed = common::parse_json(compact);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->dump(), doc->dump());
  EXPECT_EQ(reparsed->dump_compact(), compact);
}

TEST(JsonlTest, AppendReadRoundTripAndTornTail) {
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  const std::string path = root + "/j.jsonl";
  common::Json a = common::Json::object();
  a["id"] = "one";
  common::Json b = common::Json::object();
  b["id"] = "two";
  std::string error;
  ASSERT_TRUE(common::append_jsonl_record(path, a, &error)) << error;
  ASSERT_TRUE(common::append_jsonl_record(path, b, &error)) << error;

  common::JsonlReadResult result;
  ASSERT_TRUE(common::read_jsonl_file(path, &result, &error)) << error;
  EXPECT_EQ(result.records.size(), 2u);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.records[1].find("id")->as_string(), "two");

  // A writer dying mid-append leaves a partial last line: flagged as a
  // torn tail with the truncation offset, not an error.
  const std::string clean = read_text(path);
  write_text(path, clean + "{\"id\":\"thr");
  ASSERT_TRUE(common::read_jsonl_file(path, &result, &error)) << error;
  EXPECT_EQ(result.records.size(), 2u);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_EQ(result.torn_tail_offset, clean.size());

  // The same bytes mid-file (newline-complete) are corruption.
  write_text(path, "{\"id\":\"thr\n" + clean);
  EXPECT_FALSE(common::read_jsonl_file(path, &result, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

// ------------------------------------------------- journal loading ---

struct JournalFixture {
  TempDir tmp{kTempPrefix};
  std::string root = tmp.path();
  CampaignManifest manifest;
  std::string digest;
  JournalFixture() {
    std::string error;
    auto parsed = parse_campaign_manifest_text(test_manifest_text(), &error);
    EXPECT_TRUE(parsed.has_value()) << error;
    manifest = std::move(*parsed);
    digest = campaign_digest(manifest.to_json().dump() + "\n");
  }
  JobRecord record_for(const CampaignJob& job) {
    JobRecord record;
    record.id = job.id;
    record.experiment = job.experiment;
    record.seed = job.seed;
    record.document = common::Json::object();
    record.document["experiment"] = job.experiment;
    record.digest = campaign_digest(document_text(record.document));
    return record;
  }
  /// Appends attempts.jsonl lines, the header first on a fresh log.
  void log_lines(const std::string& lines) {
    std::string text = read_text(attempts_path(root));
    if (text.empty()) {
      text = attempts_header(manifest, digest).dump_compact() + "\n";
    }
    write_text(attempts_path(root), text + lines);
  }
  /// What the driver journals for a first-attempt completion: the claim,
  /// then the record.
  void commit(const JobRecord& record) {
    AttemptEvent claim;
    claim.id = record.id;
    claim.attempt = 1;
    claim.log = "logs/" + record.id + ".attempt1.log";
    log_lines(claim.to_json().dump_compact() + "\n");
    std::string error;
    ASSERT_TRUE(append_job_record(root, record, &error)) << error;
  }
  bool load(CampaignJournal* journal, std::string* error) const {
    return load_campaign_journal(root, manifest, digest, journal, error);
  }
};

TEST(CampaignJournalTest, FreshDirectoryLoadsEmpty) {
  JournalFixture fixture;
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(load_campaign_journal(fixture.root, fixture.manifest,
                                    fixture.digest, &journal, &error))
      << error;
  EXPECT_TRUE(journal.completed.empty());
}

TEST(CampaignJournalTest, RoundTripsACompletedJob) {
  JournalFixture fixture;
  fixture.commit(fixture.record_for(fixture.manifest.jobs[0]));
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(load_campaign_journal(fixture.root, fixture.manifest,
                                    fixture.digest, &journal, &error))
      << error;
  EXPECT_EQ(journal.completed.size(), 1u);
  EXPECT_EQ(journal.completed.count("a-quickstart"), 1u);
}

TEST(CampaignJournalTest, RejectsDuplicateCompletionRecords) {
  JournalFixture fixture;
  const JobRecord record = fixture.record_for(fixture.manifest.jobs[0]);
  fixture.commit(record);
  std::string error;
  ASSERT_TRUE(append_job_record(fixture.root, record, &error)) << error;
  CampaignJournal journal;
  EXPECT_FALSE(load_campaign_journal(fixture.root, fixture.manifest,
                                     fixture.digest, &journal, &error));
  EXPECT_NE(error.find("duplicate record"), std::string::npos) << error;
}

TEST(CampaignJournalTest, RejectsRecordsForUnknownJobs) {
  JournalFixture fixture;
  JobRecord rogue = fixture.record_for(fixture.manifest.jobs[0]);
  rogue.id = "never-declared";
  fixture.log_lines("");
  std::string error;
  ASSERT_TRUE(append_job_record(fixture.root, rogue, &error)) << error;
  CampaignJournal journal;
  EXPECT_FALSE(load_campaign_journal(fixture.root, fixture.manifest,
                                     fixture.digest, &journal, &error));
  EXPECT_NE(error.find("not a job of this manifest"), std::string::npos)
      << error;
}

TEST(CampaignJournalTest, RejectsDigestDrift) {
  JournalFixture fixture;
  JobRecord record = fixture.record_for(fixture.manifest.jobs[0]);
  record.digest = "crc32:00000000";
  fixture.commit(record);
  CampaignJournal journal;
  std::string error;
  EXPECT_FALSE(load_campaign_journal(fixture.root, fixture.manifest,
                                     fixture.digest, &journal, &error));
  EXPECT_NE(error.find("fails its own digest"), std::string::npos) << error;
}

TEST(CampaignJournalTest, RefusesAJournalFromADifferentManifest) {
  JournalFixture fixture;
  fixture.commit(fixture.record_for(fixture.manifest.jobs[0]));
  // A policy edit changes the campaign digest while keeping the name,
  // suite and every job's (experiment, seed) intact, so the refusal is
  // the manifest-digest cross-check — not per-record drift and not the
  // coarser campaign/suite identity check, both of which fire earlier.
  CampaignManifest edited = fixture.manifest;
  edited.policy.backoff_ms += 1;
  const std::string edited_digest =
      campaign_digest(edited.to_json().dump() + "\n");
  CampaignJournal journal;
  std::string error;
  EXPECT_FALSE(load_campaign_journal(fixture.root, edited, edited_digest,
                                     &journal, &error));
  EXPECT_NE(error.find("refusing to mix"), std::string::npos) << error;
}

TEST(CampaignJournalTest, WrongKindRecordFieldIsANamedError) {
  // A hand-corrupted journal whose field has the wrong JSON kind must
  // produce a named error, never a PW_CHECK abort from an accessor.
  JournalFixture fixture;
  fixture.log_lines("");
  write_text(results_path(fixture.root),
             "{\"digest\":\"crc32:00000000\",\"document\":{},"
             "\"experiment\":\"quickstart\",\"id\":\"a-quickstart\","
             "\"seed\":\"nope\"}\n");
  CampaignJournal journal;
  std::string error;
  EXPECT_FALSE(load_campaign_journal(fixture.root, fixture.manifest,
                                     fixture.digest, &journal, &error));
  EXPECT_NE(error.find("a-quickstart"), std::string::npos) << error;
  EXPECT_NE(error.find("\"seed\""), std::string::npos) << error;
}

TEST(CampaignJournalTest, WrongKindAttemptFieldIsANamedError) {
  JournalFixture fixture;
  fixture.log_lines(
      "{\"attempt\":\"1\",\"event\":\"claimed\",\"id\":\"a-quickstart\","
      "\"log\":\"logs/a-quickstart.attempt1.log\"}\n");
  CampaignJournal journal;
  std::string error;
  EXPECT_FALSE(fixture.load(&journal, &error));
  EXPECT_NE(error.find("attempts.jsonl line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("a-quickstart"), std::string::npos) << error;
  EXPECT_NE(error.find("\"attempt\""), std::string::npos) << error;
}

TEST(CampaignJournalTest, ReplaysRetriesQuarantinesAndTheirReset) {
  JournalFixture fixture;
  fixture.log_lines(
      "{\"attempt\":1,\"event\":\"claimed\",\"id\":\"a-quickstart\","
      "\"log\":\"logs/a-quickstart.attempt1.log\"}\n"
      "{\"attempt\":1,\"backoff_ms\":1,\"event\":\"failed\","
      "\"id\":\"a-quickstart\",\"outcome\":\"crashed\"}\n"
      "{\"attempt\":1,\"event\":\"claimed\",\"id\":\"b-quickstart\","
      "\"log\":\"logs/b-quickstart.attempt1.log\"}\n"
      "{\"attempt\":1,\"event\":\"quarantined\",\"id\":\"b-quickstart\","
      "\"reason\":\"digest mismatch\"}\n"
      "{\"attempt\":2,\"event\":\"claimed\",\"id\":\"a-quickstart\","
      "\"log\":\"logs/a-quickstart.attempt2.log\"}\n");
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(fixture.load(&journal, &error)) << error;
  EXPECT_TRUE(journal.has_attempts_header);
  const JobProgress& a = journal.progress.at("a-quickstart");
  EXPECT_EQ(a.attempts, 2);
  EXPECT_EQ(a.backoff_ms, std::vector<std::int64_t>{1});
  EXPECT_EQ(a.log.value_or(""), "logs/a-quickstart.attempt2.log");
  EXPECT_TRUE(a.claim_open);
  EXPECT_FALSE(a.status.has_value());
  const JobProgress& b = journal.progress.at("b-quickstart");
  EXPECT_EQ(b.status.value_or(""), "quarantined");
  EXPECT_EQ(next_attempt(b), 1);

  // A resume re-claims the quarantined job as attempt 1, a fresh entry;
  // a-quickstart's record completes its open attempt-2 claim.
  fixture.log_lines(
      "{\"attempt\":1,\"event\":\"claimed\",\"id\":\"b-quickstart\","
      "\"log\":\"logs/b-quickstart.attempt1.log\"}\n");
  const JobRecord record = fixture.record_for(fixture.manifest.jobs[0]);
  ASSERT_TRUE(append_job_record(fixture.root, record, &error)) << error;
  ASSERT_TRUE(fixture.load(&journal, &error)) << error;
  const JobProgress& fresh = journal.progress.at("b-quickstart");
  EXPECT_EQ(fresh.attempts, 1);
  EXPECT_FALSE(fresh.status.has_value());
  EXPECT_TRUE(fresh.claim_open);
  const JobProgress& done = journal.progress.at("a-quickstart");
  EXPECT_EQ(done.attempts, 2);
  EXPECT_EQ(done.status.value_or(""), "completed");
  EXPECT_EQ(done.digest.value_or(""), record.digest);
  EXPECT_FALSE(done.claim_open);
}

TEST(CampaignJournalTest, RejectsAttemptLogsThatDoNotReplay) {
  const std::string claim_a1 =
      "{\"attempt\":1,\"event\":\"claimed\",\"id\":\"a-quickstart\","
      "\"log\":\"l\"}\n";
  const struct {
    const char* name;
    std::string lines;  // after the header
    const char* expect;
  } kCases[] = {
      {"skipped attempt",
       "{\"attempt\":2,\"event\":\"claimed\",\"id\":\"a-quickstart\","
       "\"log\":\"l\"}\n",
       "where attempt 1 was next"},
      {"attempt goes backwards",
       claim_a1 + claim_a1, "where attempt 2 was next"},
      {"unknown event",
       "{\"attempt\":1,\"event\":\"completed\",\"id\":\"a-quickstart\"}"
       "\n",
       "unknown event \"completed\""},
      {"unknown id",
       "{\"attempt\":1,\"event\":\"claimed\",\"id\":\"zz\",\"log\":\"l\"}"
       "\n",
       "not a job of this manifest"},
      {"failure without a claim",
       "{\"attempt\":1,\"backoff_ms\":1,\"event\":\"failed\","
       "\"id\":\"a-quickstart\",\"outcome\":\"crashed\"}\n",
       "does not end the open claim"},
      {"quarantine of another attempt",
       claim_a1 +
           "{\"attempt\":2,\"event\":\"quarantined\",\"id\":\"a-quickstart\","
           "\"reason\":\"r\"}\n",
       "does not end the open claim"},
      {"unknown key",
       "{\"attempt\":1,\"event\":\"claimed\",\"id\":\"a-quickstart\","
       "\"log\":\"l\",\"pid\":7}\n",
       "unknown key \"pid\""},
  };
  for (const auto& test_case : kCases) {
    JournalFixture fixture;
    fixture.log_lines(test_case.lines);
    CampaignJournal journal;
    std::string error;
    EXPECT_FALSE(fixture.load(&journal, &error)) << test_case.name;
    EXPECT_NE(error.find("attempts.jsonl line"), std::string::npos)
        << test_case.name << ": " << error;
    EXPECT_NE(error.find(test_case.expect), std::string::npos)
        << test_case.name << ": " << error;
  }

  // An event where the header belongs.
  JournalFixture fixture;
  write_text(attempts_path(fixture.root), claim_a1);
  CampaignJournal journal;
  std::string error;
  EXPECT_FALSE(fixture.load(&journal, &error));
  EXPECT_NE(error.find("must be the campaign header"), std::string::npos)
      << error;
}

TEST(CampaignJournalTest, RefusesRecordsWithoutTheirAttemptLog) {
  // A record whose job was never claimed: the claim is flushed before
  // the fork, so no crash leaves this.
  JournalFixture fixture;
  fixture.log_lines("");
  std::string error;
  ASSERT_TRUE(append_job_record(
      fixture.root, fixture.record_for(fixture.manifest.jobs[0]), &error))
      << error;
  CampaignJournal journal;
  EXPECT_FALSE(fixture.load(&journal, &error));
  EXPECT_NE(error.find("never claimed it"), std::string::npos) << error;

  // No attempts.jsonl at all: a half-deleted directory, or one an older
  // pw_run wrote (results.jsonl + state.json). Refused, not migrated.
  std::filesystem::remove(attempts_path(fixture.root));
  EXPECT_FALSE(fixture.load(&journal, &error));
  EXPECT_NE(error.find("attempts.jsonl does not"), std::string::npos)
      << error;
}

TEST(CampaignJournalTest, RecoversASnapshotLaggingTheJournal) {
  // state.json is only a view written at exit: one left behind by an
  // earlier invocation (job still mid-attempt) must neither refuse the
  // load nor leak into the progress replayed from the logs.
  JournalFixture fixture;
  const JobRecord record = fixture.record_for(fixture.manifest.jobs[0]);
  fixture.commit(record);
  std::string error;
  std::map<std::string, JobProgress> progress;
  progress[record.id].attempts = 1;  // claimed, never marked completed
  progress["b-quickstart"].attempts = 3;
  progress["b-quickstart"].status = "quarantined";
  ASSERT_TRUE(write_campaign_state(fixture.root, fixture.manifest,
                                   fixture.digest, progress, &error))
      << error;
  CampaignJournal journal;
  ASSERT_TRUE(fixture.load(&journal, &error)) << error;
  EXPECT_EQ(journal.completed.count(record.id), 1u);
  const JobProgress& replayed = journal.progress.at(record.id);
  EXPECT_EQ(replayed.status.value_or(""), "completed");
  EXPECT_EQ(replayed.digest.value_or(""), record.digest);
  EXPECT_EQ(replayed.attempts, 1);
  EXPECT_EQ(journal.progress.count("b-quickstart"), 0u);
}

TEST(CampaignJournalTest, RefusesResumeOverATornTail) {
  JournalFixture fixture;
  fixture.commit(fixture.record_for(fixture.manifest.jobs[0]));
  const std::string results = results_path(fixture.root);
  write_text(results, read_text(results) + "{\"id\":\"b-qui");
  CampaignJournal journal;
  std::string error;
  EXPECT_FALSE(load_campaign_journal(fixture.root, fixture.manifest,
                                     fixture.digest, &journal, &error));
  EXPECT_NE(error.find("torn record"), std::string::npos) << error;
  EXPECT_NE(error.find("pw_campaign.py repair"), std::string::npos) << error;
}

// ------------------------------------------------- driver, end-to-end

/// Runs a campaign with the real pw_run binary and returns (exit code,
/// final document text — empty when none was produced).
std::pair<int, std::string> run_campaign(const CampaignDriverOptions& options) {
  const int code = run_driver(options);
  return {code, read_text(*options.json_arg)};
}

TEST(CampaignDriverTest, StraightRunsAreByteIdenticalAcrossProcs) {
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  write_text(root + "/p1.json", test_manifest_text());
  write_text(root + "/p4.json", test_manifest_text());
  auto [code1, doc1] = run_campaign(driver_options(root, "p1", 1));
  auto [code4, doc4] = run_campaign(driver_options(root, "p4", 4));
  EXPECT_EQ(code1, 0);
  EXPECT_EQ(code4, 0);
  ASSERT_FALSE(doc1.empty());
  EXPECT_EQ(doc1, doc4);

  // The document self-describes the campaign and carries every job.
  auto parsed = common::parse_json(doc1);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("campaign")->as_string(), "test");
  EXPECT_EQ(parsed->find("jobs")->size(), 2u);
  EXPECT_EQ(parsed->find("summary")->find("jobs")->as_int(), 2);
}

TEST(CampaignDriverTest, SigkilledChildIsRetriedToIdenticalBytes) {
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  write_text(root + "/straight.json", test_manifest_text());
  write_text(root + "/faulty.json", test_manifest_text());
  for (const int procs : {1, 4}) {
    const std::string name = "faulty" + std::to_string(procs);
    write_text(root + "/" + name + ".json", test_manifest_text());
    CampaignDriverOptions options = driver_options(root, name, procs);
    options.faults.kill.insert({"a-quickstart", 1});
    auto [code, doc] = run_campaign(options);
    EXPECT_EQ(code, 0) << "procs=" << procs;
    auto [straight_code, straight_doc] =
        run_campaign(driver_options(root, "straight", 1));
    EXPECT_EQ(straight_code, 0);
    EXPECT_EQ(doc, straight_doc) << "procs=" << procs;
  }
}

TEST(CampaignDriverTest, CheckpointResumeIsByteIdentical) {
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  write_text(root + "/straight.json", test_manifest_text());
  auto [straight_code, straight_doc] =
      run_campaign(driver_options(root, "straight", 1));
  ASSERT_EQ(straight_code, 0);
  for (const int procs : {1, 4}) {
    const std::string name = "stopped" + std::to_string(procs);
    write_text(root + "/" + name + ".json", test_manifest_text());
    CampaignDriverOptions options = driver_options(root, name, procs);
    options.faults.stop_after = 1;
    EXPECT_EQ(run_driver(options), 3) << "procs=" << procs;
    // One job journaled, one pending.
    common::JsonlReadResult journal;
    std::string error;
    ASSERT_TRUE(common::read_jsonl_file(results_path(options.dir), &journal,
                                        &error))
        << error;
    EXPECT_EQ(journal.records.size(), 1u);
    // Resume without the stop: finishes and matches the straight run.
    options.faults.stop_after = 0;
    auto [code, doc] = run_campaign(options);
    EXPECT_EQ(code, 0) << "procs=" << procs;
    EXPECT_EQ(doc, straight_doc) << "procs=" << procs;
  }
}

TEST(CampaignDriverTest, ResumeRecoversWhenTheDriverDiedBeforeTheSnapshot) {
  // A SIGKILL after the last append but before the exit-time state.json
  // write leaves either no view at all or one an earlier invocation
  // wrote ("nothing ever completed"). Resume replays the logs, so both
  // must finish byte-identical, not refuse the directory as corrupt.
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  write_text(root + "/straight.json", test_manifest_text());
  auto [straight_code, straight_doc] =
      run_campaign(driver_options(root, "straight", 1));
  ASSERT_EQ(straight_code, 0);
  const std::string straight_state =
      read_text(state_path(root + "/straight"));
  std::string error;
  auto manifest = parse_campaign_manifest_text(test_manifest_text(), &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  const std::string digest =
      campaign_digest(manifest->to_json().dump() + "\n");
  for (const bool stale : {false, true}) {
    const std::string name = stale ? "stale" : "missing";
    write_text(root + "/" + name + ".json", test_manifest_text());
    CampaignDriverOptions options = driver_options(root, name, 1);
    options.faults.stop_after = 1;
    ASSERT_EQ(run_driver(options), 3) << name;
    std::filesystem::remove(state_path(options.dir));
    if (stale) {
      const std::map<std::string, JobProgress> empty;
      ASSERT_TRUE(
          write_campaign_state(options.dir, *manifest, digest, empty, &error))
          << error;
    }
    options.faults.stop_after = 0;
    auto [code, doc] = run_campaign(options);
    EXPECT_EQ(code, 0) << name;
    EXPECT_EQ(doc, straight_doc) << name;
    EXPECT_EQ(read_text(state_path(options.dir)), straight_state) << name;
  }
}

/// A finished 3-job campaign at --procs=1 with a-quickstart's first
/// child SIGKILLed: results.jsonl holds b, c, a and attempts.jsonl the
/// header, claim a1, fail a1, claim b1, claim c1, claim a2.
struct StraightThreeJobRun {
  TempDir tmp{kTempPrefix};
  std::string root = tmp.path();
  CampaignDriverOptions options = driver_options(root, "straight", 1);
  std::string doc;
  std::string results;
  std::string attempts;
  StraightThreeJobRun() {
    write_text(root + "/straight.json", three_job_manifest_text());
    options.faults.kill.insert({"a-quickstart", 1});
    int code = 0;
    std::tie(code, doc) = run_campaign(options);
    EXPECT_EQ(code, 0);
    results = read_text(results_path(options.dir));
    attempts = read_text(attempts_path(options.dir));
  }
  /// A copy of the straight directory with both logs replaced, ready to
  /// resume.
  CampaignDriverOptions cut(const std::string& name,
                            const std::string& results_text,
                            const std::string& attempts_text) const {
    write_text(root + "/" + name + ".json", three_job_manifest_text());
    CampaignDriverOptions copy = driver_options(root, name, 1);
    std::filesystem::copy(options.dir, copy.dir,
                          std::filesystem::copy_options::recursive);
    write_text(results_path(copy.dir), results_text);
    write_text(attempts_path(copy.dir), attempts_text);
    return copy;
  }
};

TEST(CampaignDriverTest, CrashAtAnyJournalLineBoundaryResumesToTheSameBytes) {
  // Every (i, j): the first i lines of results.jsonl with the first j of
  // attempts.jsonl. A SIGKILLed driver leaves exactly the pairs where
  // each journaled record's claim is among the j lines (the claim is
  // flushed before the fork, the record after the child exits); those
  // must resume to the straight run's bytes. Any other pair must do the
  // same or fail with an error naming a log — never abort.
  const StraightThreeJobRun straight;
  ASSERT_FALSE(straight.doc.empty());
  const std::vector<std::string> records = lines_of(straight.results);
  const std::vector<std::string> events = lines_of(straight.attempts);
  ASSERT_EQ(records.size(), 3u) << straight.results;
  ASSERT_EQ(events.size(), 6u) << straight.attempts;
  ASSERT_NE(events[2].find("\"failed\""), std::string::npos) << events[2];

  // claimed_by[r]: how many attempt lines it takes to hold record r's
  // claim (its job's last one).
  std::vector<std::size_t> claimed_by(records.size(), 0);
  for (std::size_t r = 0; r < records.size(); ++r) {
    const auto record = common::parse_json(records[r]);
    ASSERT_TRUE(record.has_value());
    const std::string id = "\"" + record->find("id")->as_string() + "\"";
    for (std::size_t e = 0; e < events.size(); ++e) {
      if (events[e].find("\"claimed\"") != std::string::npos &&
          events[e].find(id) != std::string::npos) {
        claimed_by[r] = e + 1;
      }
    }
  }

  int reachable = 0;
  for (std::size_t i = 0; i <= records.size(); ++i) {
    for (std::size_t j = 0; j <= events.size(); ++j) {
      const std::string name =
          "cut" + std::to_string(i) + "_" + std::to_string(j);
      const CampaignDriverOptions options =
          straight.cut(name, first_lines(straight.results, i),
                       first_lines(straight.attempts, j));
      bool is_reachable = true;
      for (std::size_t r = 0; r < i; ++r) {
        is_reachable &= claimed_by[r] <= j;
      }
      ::testing::internal::CaptureStderr();
      const auto [code, doc] = run_campaign(options);
      const std::string diagnostics = ::testing::internal::GetCapturedStderr();
      if (is_reachable || code == 0) {
        EXPECT_EQ(code, 0) << name << ": " << diagnostics;
        EXPECT_EQ(doc, straight.doc) << name;
        reachable += is_reachable;
      } else {
        EXPECT_EQ(code, 1) << name;
        EXPECT_TRUE(doc.empty()) << name;
        EXPECT_TRUE(diagnostics.find("attempts.jsonl") != std::string::npos ||
                    diagnostics.find("results.jsonl") != std::string::npos)
            << name << ": " << diagnostics;
      }
    }
  }
  // i = 0 with any j, then b, c and a need 4, 5 and 6 attempt lines.
  EXPECT_EQ(reachable, 7 + 3 + 2 + 1);
}

TEST(CampaignDriverTest, TornTailInEitherLogIsRefusedThenRepaired) {
#ifndef PW_PYTHON3
  GTEST_SKIP() << "no python3 to run tools/pw_campaign.py repair";
#else
  const StraightThreeJobRun straight;
  const std::vector<std::string> records = lines_of(straight.results);
  const std::vector<std::string> events = lines_of(straight.attempts);
  ASSERT_EQ(records.size(), 3u);
  ASSERT_EQ(events.size(), 6u);
  // Killed mid-append: c's record (after its claim, line 5), or c's
  // claim itself (after b's record).
  const struct {
    const char* name;
    std::string results;
    std::string attempts;
  } kCuts[] = {
      {"torn_results", records[0] + records[1].substr(0, 40),
       first_lines(straight.attempts, 5)},
      {"torn_attempts", records[0],
       first_lines(straight.attempts, 4) + events[4].substr(0, 30)},
  };
  for (const auto& cut : kCuts) {
    const CampaignDriverOptions options =
        straight.cut(cut.name, cut.results, cut.attempts);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_driver(options), 1) << cut.name;
    const std::string diagnostics = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(diagnostics.find("torn record"), std::string::npos)
        << cut.name << ": " << diagnostics;
    const std::string repair = std::string(PW_PYTHON3) + " " +
                               PW_REPO_ROOT + "/tools/pw_campaign.py repair " +
                               options.dir + " > /dev/null";
    ASSERT_EQ(std::system(repair.c_str()), 0) << repair;
    const auto [code, doc] = run_campaign(options);
    EXPECT_EQ(code, 0) << cut.name;
    EXPECT_EQ(doc, straight.doc) << cut.name;
  }
#endif
}

TEST(CampaignDriverTest, StateJsonIsTheLogReplayWrittenOncePerInvocation) {
  // Quarantine, then a resume that re-claims the job as attempt 1:
  // every event kind, across two invocations.
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  write_text(root + "/view.json", test_manifest_text(0, 2));
  CampaignDriverOptions options = driver_options(root, "view", 2);
  options.faults.kill.insert({"a-quickstart", 1});
  options.faults.kill.insert({"a-quickstart", 2});
  ASSERT_EQ(run_driver(options), 1);
  options.faults.kill.clear();
  const auto [code, doc] = run_campaign(options);
  ASSERT_EQ(code, 0);

  // The view the driver wrote at exit is what the loader replays.
  std::string error;
  auto manifest =
      parse_campaign_manifest_text(test_manifest_text(0, 2), &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  const std::string digest =
      campaign_digest(manifest->to_json().dump() + "\n");
  CampaignJournal journal;
  ASSERT_TRUE(load_campaign_journal(options.dir, *manifest, digest, &journal,
                                    &error))
      << error;
  const std::string replayed = root + "/replayed";
  std::filesystem::create_directories(replayed);
  ASSERT_TRUE(write_campaign_state(replayed, *manifest, digest,
                                   journal.progress, &error))
      << error;
  EXPECT_EQ(read_text(state_path(replayed)), read_text(state_path(options.dir)));
  EXPECT_EQ(journal.progress.at("a-quickstart").attempts, 1);

  // Re-invoking the finished campaign appends nothing and writes no view.
  const std::string results = read_text(results_path(options.dir));
  const std::string attempts = read_text(attempts_path(options.dir));
  std::filesystem::remove(state_path(options.dir));
  const auto [again_code, again_doc] = run_campaign(options);
  EXPECT_EQ(again_code, 0);
  EXPECT_EQ(again_doc, doc);
  EXPECT_FALSE(std::filesystem::exists(state_path(options.dir)));
  EXPECT_EQ(read_text(results_path(options.dir)), results);
  EXPECT_EQ(read_text(attempts_path(options.dir)), attempts);
}

/// Every key of `object` must be catalogued as `prefix` + key.
void expect_catalogued(const common::Json& object, const std::string& prefix,
                       const std::string& where) {
  ASSERT_TRUE(object.is_object()) << where;
  for (const auto& [key, value] : object.as_object()) {
    (void)value;
    EXPECT_TRUE(is_campaign_schema_field((prefix + key).c_str()))
        << where << " carries uncatalogued `" << prefix << key << "`";
  }
}

TEST(CampaignDriverTest, EveryArtifactKeyIsCatalogued) {
  // A quarantine, then a resume: every attempt event kind is on disk.
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  write_text(root + "/keys.json", test_manifest_text(0, 2));
  CampaignDriverOptions options = driver_options(root, "keys", 1);
  options.faults.kill.insert({"a-quickstart", 1});
  options.faults.kill.insert({"a-quickstart", 2});
  ASSERT_EQ(run_driver(options), 1);
  options.faults.kill.clear();
  ASSERT_EQ(run_driver(options), 0);

  const auto manifest =
      common::parse_json(read_text(options.dir + "/manifest.json"));
  ASSERT_TRUE(manifest.has_value());
  expect_catalogued(*manifest, "manifest.", "manifest.json");
  expect_catalogued(*manifest->find("policy"), "policy.", "manifest.json");
  const common::Json& jobs = *manifest->find("jobs");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_catalogued(jobs.at(i), "job.", "manifest.json");
  }
  common::JsonlReadResult log;
  std::string error;
  ASSERT_TRUE(common::read_jsonl_file(results_path(options.dir), &log, &error))
      << error;
  for (const common::Json& record : log.records) {
    expect_catalogued(record, "record.", "results.jsonl");
  }
  ASSERT_TRUE(
      common::read_jsonl_file(attempts_path(options.dir), &log, &error))
      << error;
  std::set<std::string> events;
  for (const common::Json& line : log.records) {
    expect_catalogued(line, "attempt.", "attempts.jsonl");
    if (const common::Json* event = line.find("event")) {
      events.insert(event->as_string());
    }
  }
  EXPECT_EQ(events, (std::set<std::string>{"claimed", "failed", "quarantined"}));
  const auto state = common::parse_json(read_text(state_path(options.dir)));
  ASSERT_TRUE(state.has_value());
  expect_catalogued(*state, "state.", "state.json");
  for (const auto& [id, entry] : state->find("jobs")->as_object()) {
    expect_catalogued(entry, "state.jobs.", "state.json job " + id);
  }
  const auto doc = common::parse_json(read_text(*options.json_arg));
  ASSERT_TRUE(doc.has_value());
  expect_catalogued(*doc, "doc.", "the campaign document");
}

TEST(CampaignDriverTest, RepairsATruncatedManifestCopy) {
  // Plain-write crash damage from an earlier run: the canonical copy is
  // rewritten atomically on the next invocation instead of being
  // trusted forever because it exists.
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  write_text(root + "/copy.json", test_manifest_text());
  CampaignDriverOptions options = driver_options(root, "copy", 1);
  options.faults.stop_after = 1;
  ASSERT_EQ(run_driver(options), 3);
  const std::string copy = options.dir + "/manifest.json";
  const std::string canonical = read_text(copy);
  ASSERT_FALSE(canonical.empty());
  write_text(copy, canonical.substr(0, canonical.size() / 2));
  options.faults.stop_after = 0;
  auto [code, doc] = run_campaign(options);
  EXPECT_EQ(code, 0);
  ASSERT_FALSE(doc.empty());
  EXPECT_EQ(read_text(copy), canonical);
}

TEST(CampaignDriverTest, StopsClaimingWorkWhenTheJournalCannotBeWritten) {
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  write_text(root + "/io.json", test_manifest_text());
  CampaignDriverOptions options = driver_options(root, "io", 2);
  // A directory squatting on attempts.jsonl: the log cannot be read or
  // appended, so the driver refuses by name without spawning a job.
  std::error_code ec;
  std::filesystem::create_directories(attempts_path(options.dir), ec);
  ASSERT_FALSE(ec);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run_driver(options), 1);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("attempts.jsonl"),
            std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(results_path(options.dir)));

  // A dangling symlink there loads as a fresh campaign, then the first
  // claim's append fails: the claim is released unstarted, so no child
  // runs (no attempt log) and nothing is journaled.
  write_text(root + "/link.json", test_manifest_text());
  options = driver_options(root, "link", 2);
  std::filesystem::create_directories(options.dir, ec);
  std::filesystem::create_symlink(options.dir + "/missing/attempts.jsonl",
                                  attempts_path(options.dir), ec);
  ASSERT_FALSE(ec);
  EXPECT_EQ(run_driver(options), 1);
  EXPECT_FALSE(std::filesystem::exists(results_path(options.dir)));
  EXPECT_TRUE(std::filesystem::is_empty(options.dir + "/logs"));
  EXPECT_FALSE(std::filesystem::exists(state_path(options.dir)));
}

TEST(CampaignDriverTest, ExhaustedRetriesQuarantineAndResumeRecovers) {
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  write_text(root + "/q.json", test_manifest_text(0, 2));
  CampaignDriverOptions options = driver_options(root, "q", 2);
  options.faults.kill.insert({"a-quickstart", 1});
  options.faults.kill.insert({"a-quickstart", 2});
  EXPECT_EQ(run_driver(options), 1);
  EXPECT_TRUE(read_text(*options.json_arg).empty())
      << "quarantine must not produce a campaign document";
  // The healthy job still completed; the quarantined one kept its log.
  common::JsonlReadResult journal;
  std::string error;
  ASSERT_TRUE(
      common::read_jsonl_file(results_path(options.dir), &journal, &error))
      << error;
  EXPECT_EQ(journal.records.size(), 1u);
  const std::string state_text = read_text(state_path(options.dir));
  EXPECT_NE(state_text.find("quarantined"), std::string::npos);
  // The captured log is kept (empty here: the injected SIGKILL fires
  // pre-exec, before the child could write a byte).
  EXPECT_TRUE(std::ifstream(options.dir + "/logs/a-quickstart.attempt2.log")
                  .good());

  // Resume re-queues the quarantined job with a fresh budget.
  options.faults.kill.clear();
  auto [code, doc] = run_campaign(options);
  EXPECT_EQ(code, 0);
  write_text(root + "/straight.json", test_manifest_text(0, 2));
  auto [straight_code, straight_doc] =
      run_campaign(driver_options(root, "straight", 1));
  EXPECT_EQ(straight_code, 0);
  EXPECT_EQ(doc, straight_doc);
}

TEST(CampaignDriverTest, HangingChildTimesOutAndRetries) {
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  write_text(root + "/h.json", test_manifest_text(/*timeout_ms=*/300));
  CampaignDriverOptions options = driver_options(root, "h", 2);
  options.faults.hang.insert({"b-quickstart", 1});
  auto [code, doc] = run_campaign(options);
  EXPECT_EQ(code, 0);
  // The retry is visible in the state snapshot's backoff schedule.
  auto state = common::parse_json(read_text(state_path(options.dir)));
  ASSERT_TRUE(state.has_value());
  const common::Json* entry = state->find("jobs")->find("b-quickstart");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->find("attempts")->as_int(), 2);
  EXPECT_EQ(entry->find("backoff_ms")->size(), 1u);
}

TEST(CampaignDriverTest, PinnedDigestMismatchQuarantinesWithoutRetry) {
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  std::string error;
  auto manifest = parse_campaign_manifest_text(test_manifest_text(), &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  manifest->jobs[0].expect_digest = "crc32:00000000";  // cannot match
  write_text(root + "/pin.json", manifest->to_json().dump() + "\n");
  CampaignDriverOptions options = driver_options(root, "pin", 1);
  EXPECT_EQ(run_driver(options), 1);
  auto state = common::parse_json(read_text(state_path(options.dir)));
  ASSERT_TRUE(state.has_value());
  const common::Json* entry = state->find("jobs")->find("a-quickstart");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->find("status")->as_string(), "quarantined");
  // Determinism failures are terminal: one attempt, no retries burned.
  EXPECT_EQ(entry->find("attempts")->as_int(), 1);
}

TEST(CampaignDriverTest, DuplicateJournalRecordRefusesResume) {
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  write_text(root + "/dup.json", test_manifest_text());
  CampaignDriverOptions options = driver_options(root, "dup", 1);
  ASSERT_EQ(run_driver(options), 0);
  const std::string results = results_path(options.dir);
  const std::string text = read_text(results);
  const std::string first_line = text.substr(0, text.find('\n') + 1);
  write_text(results, text + first_line);
  EXPECT_EQ(run_driver(options), 1);
}

TEST(CampaignDriverTest, WrongKindDocumentFieldIsANamedErrorOnResume) {
  // A journaled document with "failed": 0 under a self-consistent
  // digest passes the journal loader; the reduce step must refuse it by
  // name instead of aborting in the bool accessor.
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  write_text(root + "/kind.json", test_manifest_text());
  CampaignDriverOptions options = driver_options(root, "kind", 1);
  ASSERT_EQ(run_driver(options), 0);
  const std::string results = results_path(options.dir);
  common::JsonlReadResult journal;
  std::string error;
  ASSERT_TRUE(common::read_jsonl_file(results, &journal, &error)) << error;
  std::string text;
  for (common::Json record : journal.records) {
    if (record.find("id")->as_string() == "a-quickstart") {
      common::Json document = *record.find("document");
      document["failed"] = 0;
      record["digest"] = campaign_digest(document_text(document));
      record["document"] = std::move(document);
    }
    text += record.dump_compact() + "\n";
  }
  write_text(results, text);
  ::testing::internal::CaptureStderr();
  const int code = run_driver(options);
  const std::string diagnostics = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(code, 1);
  EXPECT_NE(diagnostics.find("a-quickstart"), std::string::npos)
      << diagnostics;
  EXPECT_NE(diagnostics.find("\"failed\""), std::string::npos)
      << diagnostics;
}

TEST(CampaignDriverTest, CountsCompletionsRetriesAndQuarantines) {
  PW_REQUIRE_OBS_ON();
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  write_text(root + "/obs.json", test_manifest_text(0, 2));
  CampaignDriverOptions options = driver_options(root, "obs", 1);
  options.faults.kill.insert({"a-quickstart", 1});  // one retry
  obs::Registry::reset();
  obs::Registry::set_enabled(true);
  const int code = run_driver(options);
  obs::Registry::set_enabled(false);
  EXPECT_EQ(code, 0);
  EXPECT_EQ(obs::Registry::counter_value(obs::Counter::kCampaignJobsCompleted),
            2);
  EXPECT_EQ(obs::Registry::counter_value(obs::Counter::kCampaignJobsRetried),
            1);
  EXPECT_EQ(
      obs::Registry::counter_value(obs::Counter::kCampaignJobsQuarantined),
      0);
  EXPECT_EQ(obs::Registry::gauge_value(obs::Gauge::kCampaignQueueDepthPeak),
            2);
}

// ------------------------------------------- loader mutation loop ----

/// splitmix64: a seeded, platform-independent mutation stream.
struct MutationStream {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

/// One byte-level mutation: flip a bit, insert or delete a byte,
/// truncate, or duplicate a line.
std::string mutate(const std::string& text, MutationStream& stream) {
  std::string out = text;
  switch (stream.below(5)) {
    case 0:
      if (!out.empty()) {
        out[stream.below(out.size())] ^=
            static_cast<char>(1 << stream.below(8));
      }
      break;
    case 1:
      out.insert(stream.below(out.size() + 1), 1,
                 static_cast<char>(stream.below(256)));
      break;
    case 2:
      if (!out.empty()) out.erase(stream.below(out.size()), 1);
      break;
    case 3:
      out.resize(stream.below(out.size() + 1));
      break;
    default: {
      std::vector<std::string> lines = lines_of(out);
      if (lines.empty()) break;
      const std::size_t k = stream.below(lines.size());
      const std::string copy = lines[k];
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(k), copy);
      out.clear();
      for (const std::string& line : lines) out += line;
      break;
    }
  }
  return out;
}

bool names_any(const std::string& error,
               std::initializer_list<const char*> names) {
  for (const char* name : names) {
    if (error.find(name) != std::string::npos) return true;
  }
  return false;
}

TEST(CampaignLoaderFuzz, SeededMutationsAreNamedErrorsNeverAborts) {
  // A finished 2-job campaign with one retry, so the attempt log holds a
  // header, claims and a failure. Each mutated file goes through its
  // loader in-process: accepted, or refused with an error naming the
  // file, never an abort (the CI sanitizer job runs this too).
  const TempDir tmp(kTempPrefix);
  const std::string& root = tmp.path();
  write_text(root + "/fuzz.json", test_manifest_text());
  CampaignDriverOptions options = driver_options(root, "fuzz", 1);
  options.faults.kill.insert({"a-quickstart", 1});
  ASSERT_EQ(run_driver(options), 0);
  const std::string manifest_text = read_text(options.dir + "/manifest.json");
  const std::string results = read_text(results_path(options.dir));
  const std::string attempts = read_text(attempts_path(options.dir));
  std::string error;
  const auto manifest = parse_campaign_manifest_text(manifest_text, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  const std::string digest = campaign_digest(manifest_text);
  const std::string work = root + "/work";
  std::filesystem::create_directories(work);

  constexpr int kMutationsPerFile = 500;
  MutationStream stream{0x5eed};
  int refused = 0;
  for (int n = 0; n < kMutationsPerFile; ++n) {
    // The manifest: parsed, then the unmutated logs loaded against it.
    const std::string text = mutate(manifest_text, stream);
    const auto mutated = parse_campaign_manifest_text(text, &error);
    CampaignJournal journal;
    if (!mutated.has_value()) {
      ++refused;
      EXPECT_TRUE(names_any(error, {"manifest", "policy", "job"}))
          << error << "\n" << text;
    } else if (!load_campaign_journal(
                   options.dir, *mutated,
                   campaign_digest(mutated->to_json().dump() + "\n"),
                   &journal, &error)) {
      ++refused;
      EXPECT_TRUE(names_any(error, {"attempts.jsonl", "results.jsonl"}))
          << error << "\n" << text;
    }
    // Each log mutated on its own.
    for (const bool in_results : {true, false}) {
      const std::string log = mutate(in_results ? results : attempts, stream);
      write_text(results_path(work), in_results ? log : results);
      write_text(attempts_path(work), in_results ? attempts : log);
      if (!load_campaign_journal(work, *manifest, digest, &journal, &error)) {
        ++refused;
        EXPECT_NE(error.find(in_results ? "results.jsonl" : "attempts.jsonl"),
                  std::string::npos)
            << error << "\n" << log;
      }
    }
  }
  // Most mutations break something; the loop is not vacuous.
  EXPECT_GT(refused, kMutationsPerFile);
}

}  // namespace
}  // namespace politewifi::runtime::campaign
