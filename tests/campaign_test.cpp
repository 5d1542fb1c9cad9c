// Campaign runtime tests: manifest schema strictness and canonical
// round-trips, the Python/C++ seed-derivation and formatting agreement
// (pinned against the tools/pw_campaign.py-authored golden), JSONL
// journal semantics (torn tails, duplicate and corrupt records), and
// the driver's end-to-end determinism contract — straight runs,
// SIGKILLed children, checkpoint/resume and quarantine all converge on
// byte-identical campaign documents (CAMPAIGNS.md). End-to-end cases
// spawn the real pw_run binary (PW_PW_RUN) through the in-process
// driver, so the fork/exec, timeout and journal paths are the ones
// production takes.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json_parse.h"
#include "common/jsonl.h"
#include "obs/metrics.h"
#include "runtime/campaign/driver.h"
#include "runtime/campaign/journal.h"
#include "runtime/campaign/manifest.h"
#include "runtime/campaign/schema.h"

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

std::string make_temp_dir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string tmpl = (tmp != nullptr ? tmp : "/tmp");
  tmpl += "/pw_campaign_test.XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  EXPECT_NE(mkdtemp(buf.data()), nullptr);
  return std::string(buf.data());
}

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
  const std::string root = make_temp_dir();
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
  std::string root = make_temp_dir();
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
  void commit(const JobRecord& record) {
    std::string error;
    ASSERT_TRUE(append_job_record(root, record, &error)) << error;
    std::map<std::string, JobProgress> progress;
    JobProgress& entry = progress[record.id];
    entry.attempts = 1;
    entry.status = "completed";
    entry.digest = record.digest;
    ASSERT_TRUE(
        write_campaign_state(root, manifest, digest, progress, &error))
        << error;
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
  fixture.commit(rogue);
  CampaignJournal journal;
  std::string error;
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

TEST(CampaignJournalTest, RecoversASnapshotLaggingTheJournal) {
  // The crash window: append_job_record succeeded, the driver died
  // before the state.json rewrite. The stale snapshot (job still
  // mid-attempt) must not refuse resume — the loader patches the entry
  // from the digest-verified record.
  JournalFixture fixture;
  const JobRecord record = fixture.record_for(fixture.manifest.jobs[0]);
  std::string error;
  ASSERT_TRUE(append_job_record(fixture.root, record, &error)) << error;
  std::map<std::string, JobProgress> progress;
  progress[record.id].attempts = 1;  // claimed, never marked completed
  ASSERT_TRUE(write_campaign_state(fixture.root, fixture.manifest,
                                   fixture.digest, progress, &error))
      << error;
  CampaignJournal journal;
  ASSERT_TRUE(load_campaign_journal(fixture.root, fixture.manifest,
                                    fixture.digest, &journal, &error))
      << error;
  EXPECT_EQ(journal.completed.count(record.id), 1u);
  const JobProgress& patched = journal.progress.at(record.id);
  EXPECT_EQ(patched.status.value_or(""), "completed");
  EXPECT_EQ(patched.digest.value_or(""), record.digest);
  EXPECT_GE(patched.attempts, 1);
}

TEST(CampaignJournalTest, RejectsSnapshotCompletionWithoutARecord) {
  // The reverse direction cannot arise from the append-then-snapshot
  // write order, so it stays a hard error.
  JournalFixture fixture;
  const JobRecord record = fixture.record_for(fixture.manifest.jobs[0]);
  std::string error;
  std::map<std::string, JobProgress> progress;
  JobProgress& entry = progress[record.id];
  entry.attempts = 1;
  entry.status = "completed";
  entry.digest = record.digest;
  ASSERT_TRUE(write_campaign_state(fixture.root, fixture.manifest,
                                   fixture.digest, progress, &error))
      << error;
  CampaignJournal journal;
  EXPECT_FALSE(load_campaign_journal(fixture.root, fixture.manifest,
                                     fixture.digest, &journal, &error));
  EXPECT_NE(error.find("no record"), std::string::npos) << error;
}

TEST(CampaignJournalTest, WrongKindRecordFieldIsANamedError) {
  // A hand-corrupted journal whose field has the wrong JSON kind must
  // produce a named error, never a PW_CHECK abort from an accessor.
  JournalFixture fixture;
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

TEST(CampaignJournalTest, WrongKindStateFieldIsANamedError) {
  JournalFixture fixture;
  std::string error;
  std::map<std::string, JobProgress> progress;
  progress["a-quickstart"].attempts = 1;
  ASSERT_TRUE(write_campaign_state(fixture.root, fixture.manifest,
                                   fixture.digest, progress, &error))
      << error;
  const std::string state_file = state_path(fixture.root);
  std::string text = read_text(state_file);
  const std::string from = "\"attempts\": 1";
  const std::size_t pos = text.find(from);
  ASSERT_NE(pos, std::string::npos) << text;
  write_text(state_file,
             text.replace(pos, from.size(), "\"attempts\": \"1\""));
  CampaignJournal journal;
  EXPECT_FALSE(load_campaign_journal(fixture.root, fixture.manifest,
                                     fixture.digest, &journal, &error));
  EXPECT_NE(error.find("a-quickstart"), std::string::npos) << error;
  EXPECT_NE(error.find("\"attempts\""), std::string::npos) << error;
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
  const std::string root = make_temp_dir();
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
  const std::string root = make_temp_dir();
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
  const std::string root = make_temp_dir();
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
  // Emulates a SIGKILL landing between the results.jsonl append and the
  // state.json rewrite: one record journaled, snapshot rolled back to
  // "nothing ever completed". Resume must finish byte-identical, not
  // refuse the directory as corrupt.
  const std::string root = make_temp_dir();
  write_text(root + "/straight.json", test_manifest_text());
  auto [straight_code, straight_doc] =
      run_campaign(driver_options(root, "straight", 1));
  ASSERT_EQ(straight_code, 0);
  write_text(root + "/lag.json", test_manifest_text());
  CampaignDriverOptions options = driver_options(root, "lag", 1);
  options.faults.stop_after = 1;
  ASSERT_EQ(run_driver(options), 3);
  std::string error;
  auto manifest = parse_campaign_manifest_text(test_manifest_text(), &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  const std::string digest =
      campaign_digest(manifest->to_json().dump() + "\n");
  const std::map<std::string, JobProgress> empty;
  ASSERT_TRUE(
      write_campaign_state(options.dir, *manifest, digest, empty, &error))
      << error;
  options.faults.stop_after = 0;
  auto [code, doc] = run_campaign(options);
  EXPECT_EQ(code, 0);
  EXPECT_EQ(doc, straight_doc);
}

TEST(CampaignDriverTest, RepairsATruncatedManifestCopy) {
  // Plain-write crash damage from an earlier run: the canonical copy is
  // rewritten atomically on the next invocation instead of being
  // trusted forever because it exists.
  const std::string root = make_temp_dir();
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
  const std::string root = make_temp_dir();
  write_text(root + "/io.json", test_manifest_text());
  CampaignDriverOptions options = driver_options(root, "io", 2);
  // A directory squatting on state.json's temp path makes every
  // snapshot rewrite fail. The driver must abort without spawning a
  // single job rather than run work it can never checkpoint.
  std::error_code ec;
  std::filesystem::create_directories(options.dir + "/state.json.tmp", ec);
  ASSERT_FALSE(ec);
  EXPECT_EQ(run_driver(options), 1);
  EXPECT_FALSE(std::filesystem::exists(results_path(options.dir)));
}

TEST(CampaignDriverTest, ExhaustedRetriesQuarantineAndResumeRecovers) {
  const std::string root = make_temp_dir();
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
  const std::string root = make_temp_dir();
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
  const std::string root = make_temp_dir();
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
  const std::string root = make_temp_dir();
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
  const std::string root = make_temp_dir();
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
  const std::string root = make_temp_dir();
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

}  // namespace
}  // namespace politewifi::runtime::campaign
