#include "runtime/runner.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>

#include "obs/metrics.h"
#include "obs/timeline.h"
#include "runtime/campaign/driver.h"
#include "runtime/city_reduce.h"
#include "runtime/experiments/all.h"
#include "runtime/registry.h"
#include "runtime/run_context.h"

namespace politewifi::runtime {

namespace {

constexpr const char* kReservedFlags[] = {
    "list",     "names",    "all",  "smoke",    "json",         "help",
    "metrics",  "timeline", "city", "campaign", "campaign-dir", "procs"};

bool is_reserved(const std::string& name) {
  for (const char* reserved : kReservedFlags) {
    if (name == reserved) return true;
  }
  return false;
}

std::string known_experiments_text() {
  std::string out;
  for (const auto& name : ExperimentRegistry::instance().names()) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

void print_pw_run_usage() {
  std::fprintf(
      stderr,
      "pw_run — declarative experiment runner for the Polite WiFi suite\n"
      "\n"
      "usage:\n"
      "  pw_run --help                this text\n"
      "  pw_run --list                describe every registered experiment\n"
      "  pw_run --names               bare experiment names, one per line\n"
      "  pw_run <experiment> [--seed=N] [--smoke] [--<param>=<value> ...]\n"
      "                      [--json[=PATH]] [--metrics[=PATH]]\n"
      "                      [--timeline[=PATH]]\n"
      "  pw_run --all [--smoke] [--seed=N] [--json[=DIR]] [--metrics[=DIR]]\n"
      "               [--timeline[=DIR]]\n"
      "  pw_run --campaign=MANIFEST [--campaign-dir=DIR] [--procs=P]\n"
      "                    [--json[=PATH]] [--metrics[=PATH]]\n"
      "  pw_run --city [--procs=P] [--campaign-dir=DIR] [--smoke]\n"
      "                [--districts=D] [--<param>=<value> ...]\n"
      "                [--json[=PATH]] [--metrics[=PATH]]\n"
      "  pw_run --campaign-dir=DIR    report a campaign directory's progress\n"
      "\n"
      "--campaign streams the manifest's job queue through a pool of P\n"
      "child processes (default 4) with checkpoint/resume: completed jobs\n"
      "are journaled to DIR/results.jsonl (default DIR: the manifest path\n"
      "with .json replaced by .campaign) and skipped on re-invocation, so\n"
      "an interrupted campaign resumes to byte-identical results. Crashed\n"
      "or timed-out jobs retry with recorded exponential backoff until\n"
      "the manifest's policy quarantines them. --campaign-dir=DIR alone\n"
      "replays DIR's journal and prints every job's state without writing\n"
      "anything (exit 1 on quarantined jobs or a torn tail, whose\n"
      "`truncate -s` repair it prints). See CAMPAIGNS.md.\n"
      "\n"
      "--city runs the `city` experiment as a campaign with one job per\n"
      "district, all on the run's seed, and reduces the district documents\n"
      "into the same bytes a single-process `pw_run city` emits. Without\n"
      "--campaign-dir the journal lives in a TMPDIR scratch directory,\n"
      "removed on success and kept (path printed) otherwise.\n"
      "\n"
      "Every run narrates in human-readable form on stdout; --json\n"
      "additionally writes the canonical key-sorted JSON document (bare\n"
      "--json: <experiment>.json in the current directory).\n"
      "--metrics collects the obs/ registry over the run: the canonical\n"
      "metrics block is appended to the JSON document and written alone to\n"
      "PATH (default <experiment>.metrics.json); byte-identical from run\n"
      "to run. --timeline records a Chrome trace (chrome://tracing /\n"
      "Perfetto) over the run and writes it to PATH (default\n"
      "<experiment>.trace.json); each flag writes only its own file.\n"
      "See OBSERVABILITY.md.\n");
}

}  // namespace

bool write_output(const char* label, const std::string& default_name,
                  const std::string& text, const std::string& arg,
                  bool force_dir) {
  namespace fs = std::filesystem;
  std::string path;
  if (arg.empty()) {
    path = default_name;
  } else if (force_dir || fs::is_directory(arg)) {
    // An existing directory means "put the default-named file in
    // there" even outside --all mode; fopen on a directory would only
    // fail with a less helpful error.
    std::error_code ec;
    fs::create_directories(arg, ec);
    if (ec) {
      std::fprintf(stderr, "pw_run: cannot create directory %s: %s\n",
                   arg.c_str(), ec.message().c_str());
      return false;
    }
    path = (fs::path(arg) / default_name).string();
  } else {
    path = arg;
    const fs::path parent = fs::path(path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      fs::create_directories(parent, ec);
      if (ec) {
        std::fprintf(stderr, "pw_run: cannot create directory %s: %s\n",
                     parent.string().c_str(), ec.message().c_str());
        return false;
      }
    }
  }
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
    const bool ok = std::fclose(f) == 0 && written == text.size();
    if (!ok) {
      std::fprintf(stderr, "pw_run: short write: %s\n", path.c_str());
      return false;
    }
    std::printf("%s: %s\n", label, path.c_str());
    return true;
  }
  std::fprintf(stderr, "pw_run: cannot write %s\n", path.c_str());
  return false;
}

namespace {

bool write_json(const std::string& name, const std::string& json,
                const std::string& json_arg, bool force_dir) {
  return write_output("json", name + ".json", json, json_arg, force_dir);
}

/// Writes the --metrics / --timeline artifacts of one finished run.
/// Returns false if any requested write failed.
bool write_obs_outputs(const std::string& name,
                       const RunExperimentResult& result,
                       const std::optional<std::string>& metrics_arg,
                       const std::optional<std::string>& timeline_arg,
                       bool force_dir) {
  bool ok = true;
  if (metrics_arg.has_value()) {
    ok &= write_output("metrics", name + ".metrics.json", result.metrics_json,
                       *metrics_arg, force_dir);
  }
  if (timeline_arg.has_value()) {
    ok &= write_output("timeline", name + ".trace.json", result.timeline_json,
                       *timeline_arg, force_dir);
  }
  return ok;
}

/// One fault-list env var: "id:attempt[,id:attempt...]".
bool parse_fault_env_list(const char* env_name,
                          std::set<std::pair<std::string, int>>* out) {
  const char* raw = std::getenv(env_name);
  if (raw == nullptr || *raw == '\0') return true;
  std::string text(raw);
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    const std::size_t colon = item.find(':');
    std::int64_t attempt = 0;
    if (colon == std::string::npos || colon == 0 ||
        !common::parse_int64(item.substr(colon + 1), &attempt) ||
        attempt < 1 || attempt > INT_MAX) {
      std::fprintf(stderr,
                   "pw_run: %s: expected \"id:attempt[,id:attempt...]\", "
                   "got \"%s\"\n",
                   env_name, raw);
      return false;
    }
    out->insert({item.substr(0, colon), static_cast<int>(attempt)});
    start = comma + 1;
  }
  return true;
}

/// Deterministic fault hooks for tests and the CI campaign-smoke job
/// (documented in CAMPAIGNS.md): PW_CAMPAIGN_FAULT_KILL SIGKILLs the
/// named (id, attempt) children pre-exec, PW_CAMPAIGN_FAULT_HANG makes
/// them hang into the timeout, PW_CAMPAIGN_STOP_AFTER=N checkpoints the
/// invocation after N dispatches (exit 3). No effect outside --campaign
/// and --city.
bool parse_campaign_fault_env(campaign::CampaignFaults* faults) {
  if (!parse_fault_env_list("PW_CAMPAIGN_FAULT_KILL", &faults->kill) ||
      !parse_fault_env_list("PW_CAMPAIGN_FAULT_HANG", &faults->hang)) {
    return false;
  }
  if (const char* raw = std::getenv("PW_CAMPAIGN_STOP_AFTER")) {
    std::int64_t value = 0;
    if (*raw != '\0') {
      if (!common::parse_int64(raw, &value) || value < 1 ||
          value > INT_MAX) {
        std::fprintf(stderr, "pw_run: PW_CAMPAIGN_STOP_AFTER: expected a "
                             "positive dispatch count, got \"%s\"\n",
                     raw);
        return false;
      }
      faults->stop_after = static_cast<int>(value);
    }
  }
  return true;
}

void print_list() {
  auto& registry = ExperimentRegistry::instance();
  for (const auto& name : registry.names()) {
    const auto experiment = registry.create(name);
    const ExperimentSpec& spec = experiment->spec();
    std::printf("%-22s %s\n", name.c_str(), spec.summary.c_str());
    std::printf("  %-28s %s\n",
                ("--seed=" + std::to_string(spec.default_seed)).c_str(),
                "run seed (every sub-seed derives from it)");
    for (const auto& p : spec.params) {
      std::string flag = "--" + p.name + "=" + param_value_text(p.default_value);
      std::string desc = p.description;
      if (p.smoke_value.has_value()) {
        desc += " [smoke: " + param_value_text(*p.smoke_value) + "]";
      }
      std::printf("  %-28s %s\n", flag.c_str(), desc.c_str());
    }
  }
}

}  // namespace

RunExperimentResult run_experiment(const std::string& name,
                                   const std::vector<common::Flag>& flags,
                                   bool smoke,
                                   const RunOptions& options) {
  RunExperimentResult result;
  const auto experiment = ExperimentRegistry::instance().create(name);
  if (experiment == nullptr) {
    result.exit_code = 2;
    result.error = "unknown experiment '" + name +
                   "' (known: " + known_experiments_text() + ")";
    return result;
  }
  const ExperimentSpec& spec = experiment->spec();
  ResolvedRun resolved;
  std::string error;
  if (!resolve_run(spec, flags, smoke, &resolved, &error)) {
    result.exit_code = 2;
    result.error = error;
    return result;
  }
  // Observability is scoped to exactly this run: the registry window is
  // reset here (RunContext construction already derives no sub-seeds),
  // and the profiler uninstalls before results are serialized.
  if (options.metrics) {
    obs::Registry::reset();
    obs::Registry::set_enabled(true);
  }
  obs::TimelineProfiler timeline;
  if (options.timeline) obs::set_active_timeline(&timeline);

  RunContext ctx(spec, std::move(resolved));
  {
    PW_TIMEIT(kRuntimeExperimentWallNs, "experiment");
    experiment->run(ctx);
  }

  if (options.timeline) {
    obs::set_active_timeline(nullptr);
    result.timeline_json = timeline.dump();
  }
  if (options.metrics) {
    obs::Registry::set_enabled(false);
    common::Json metrics = obs::Registry::to_json();
    result.metrics_json = metrics.dump() + "\n";
    ctx.sink().set_meta("metrics", std::move(metrics));
  }
  result.exit_code = ctx.failed() ? 1 : 0;
  result.json = ctx.sink().canonical_text();
  return result;
}

int pw_run_main(int argc, char** argv) {
  register_builtin_experiments();
  std::string parse_error;
  const auto parsed = common::parse_args(argc, argv, &parse_error);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "pw_run: %s\n\n", parse_error.c_str());
    print_pw_run_usage();
    return 2;
  }
  if (parsed->has_flag("help")) {
    print_pw_run_usage();
    return 0;
  }
  if (parsed->has_flag("list")) {
    print_list();
    return 0;
  }
  if (parsed->has_flag("names")) {
    for (const auto& name : ExperimentRegistry::instance().names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  const bool all = parsed->has_flag("all");
  const bool smoke = parsed->has_flag("smoke");
  std::optional<std::string> json_arg;
  if (const common::Flag* flag = parsed->find_flag("json")) {
    json_arg = flag->value.value_or("");
  }
  std::optional<std::string> metrics_arg;
  if (const common::Flag* flag = parsed->find_flag("metrics")) {
    metrics_arg = flag->value.value_or("");
  }
  std::optional<std::string> timeline_arg;
  if (const common::Flag* flag = parsed->find_flag("timeline")) {
    timeline_arg = flag->value.value_or("");
  }
  RunOptions options;
  options.metrics = metrics_arg.has_value();
  options.timeline = timeline_arg.has_value();

  std::vector<common::Flag> forwarded;
  for (const auto& flag : parsed->flags) {
    if (!is_reserved(flag.name)) forwarded.push_back(flag);
  }

  const common::Flag* campaign_flag = parsed->find_flag("campaign");
  const common::Flag* city_flag = parsed->find_flag("city");
  const common::Flag* dir_flag = parsed->find_flag("campaign-dir");
  if (dir_flag != nullptr &&
      (!dir_flag->value.has_value() || dir_flag->value->empty())) {
    std::fprintf(stderr, "pw_run: --campaign-dir needs a directory: "
                         "--campaign-dir=DIR\n");
    return 2;
  }
  if (campaign_flag == nullptr && city_flag == nullptr) {
    if (dir_flag != nullptr) {
      // Alone, --campaign-dir reports that campaign and writes nothing.
      if (parsed->flags.size() != 1 || !parsed->positionals.empty()) {
        std::fprintf(stderr,
                     "pw_run: --campaign-dir=DIR takes no other flag or "
                     "argument unless --campaign or --city runs the "
                     "campaign\n");
        return 2;
      }
      return campaign::report_campaign_status(*dir_flag->value);
    }
    if (parsed->has_flag("procs")) {
      std::fprintf(stderr,
                   "pw_run: --procs only applies together with --campaign "
                   "or --city\n");
      return 2;
    }
  } else {
    // Both run through the campaign driver: one process pool, the same
    // journal, retry, quarantine and fault hooks; only the job list and
    // the reduce step differ.
    if (campaign_flag != nullptr && city_flag != nullptr) {
      std::fprintf(stderr, "pw_run: --campaign and --city are exclusive\n");
      return 2;
    }
    if (city_flag != nullptr) {
      if (city_flag->value.has_value()) {
        std::fprintf(stderr,
                     "pw_run: --city takes no value; set the process count "
                     "with --procs=P\n");
        return 2;
      }
      // `pw_run --city` implies the `city` experiment; naming it
      // explicitly is tolerated, anything else is a usage error.
      if (all || (!parsed->positionals.empty() &&
                  (parsed->positionals.size() != 1 ||
                   parsed->positionals.front() != "city"))) {
        std::fprintf(stderr,
                     "pw_run: --city always runs the city experiment\n");
        return 2;
      }
    } else {
      if (!campaign_flag->value.has_value() || campaign_flag->value->empty()) {
        std::fprintf(stderr, "pw_run: --campaign needs a manifest: "
                             "--campaign=MANIFEST.json\n");
        return 2;
      }
      if (!parsed->positionals.empty() || all || smoke ||
          !forwarded.empty()) {
        std::fprintf(stderr,
                     "pw_run: --campaign takes no experiment name or "
                     "per-experiment flags; jobs, seeds and parameters come "
                     "from the manifest (see CAMPAIGNS.md)\n");
        return 2;
      }
    }
    campaign::CampaignDriverOptions opts;
    opts.argv0 = argv[0];
    if (dir_flag != nullptr) opts.dir = *dir_flag->value;
    if (const common::Flag* procs = parsed->find_flag("procs")) {
      std::int64_t value = 0;
      if (!procs->value.has_value() ||
          !common::parse_int64(*procs->value, &value) || value < 1 ||
          value > 64) {
        std::fprintf(stderr, "pw_run: --procs=P needs a process count in "
                             "[1, 64]\n");
        return 2;
      }
      opts.processes = static_cast<int>(value);
    }
    opts.json_arg = json_arg;
    opts.metrics_arg = metrics_arg;
    if (timeline_arg.has_value()) {
      std::fprintf(stderr,
                   "pw_run: note: --timeline is per-process wall time and "
                   "is not reduced; ignoring it under %s\n",
                   city_flag != nullptr ? "--city" : "--campaign");
    }
    if (!parse_campaign_fault_env(&opts.faults)) return 2;
    if (city_flag != nullptr) return run_city_campaign(forwarded, smoke, opts);

    const std::string& manifest_path = *campaign_flag->value;
    if (opts.dir.empty()) {
      // MANIFEST.json -> MANIFEST.campaign; anything else just appends.
      opts.dir = manifest_path;
      const std::string suffix = ".json";
      if (opts.dir.size() > suffix.size() &&
          opts.dir.compare(opts.dir.size() - suffix.size(), suffix.size(),
                           suffix) == 0) {
        opts.dir.resize(opts.dir.size() - suffix.size());
      }
      opts.dir += ".campaign";
    }
    return campaign::run_campaign_file(manifest_path, opts);
  }

  if (all) {
    if (!parsed->positionals.empty()) {
      std::fprintf(stderr,
                   "pw_run: --all takes no experiment name (got '%s')\n",
                   parsed->positionals.front().c_str());
      return 2;
    }
    for (const auto& flag : forwarded) {
      if (flag.name != "seed") {
        std::fprintf(stderr,
                     "pw_run: --%s is per-experiment; with --all only "
                     "--seed, --smoke, --json, --metrics and --timeline "
                     "apply\n",
                     flag.name.c_str());
        return 2;
      }
    }
    int exit_code = 0;
    for (const auto& name : ExperimentRegistry::instance().names()) {
      std::printf("\n===== pw_run %s =====\n\n", name.c_str());
      const auto result = run_experiment(name, forwarded, smoke, options);
      if (result.exit_code == 2) {
        std::fprintf(stderr, "pw_run: %s\n", result.error.c_str());
        return 2;
      }
      if (result.exit_code != 0) exit_code = 1;
      if (json_arg.has_value() &&
          !write_json(name, result.json, *json_arg, /*force_dir=*/true)) {
        exit_code = 1;
      }
      if (!write_obs_outputs(name, result, metrics_arg, timeline_arg,
                             /*force_dir=*/true)) {
        exit_code = 1;
      }
    }
    return exit_code;
  }

  if (parsed->positionals.size() != 1) {
    print_pw_run_usage();
    return 2;
  }
  const std::string& name = parsed->positionals.front();
  const auto result = run_experiment(name, forwarded, smoke, options);
  if (result.exit_code == 2) {
    std::fprintf(stderr, "pw_run: %s\n", result.error.c_str());
    return 2;
  }
  int exit_code = result.exit_code;
  if (json_arg.has_value() &&
      !write_json(name, result.json, *json_arg, /*force_dir=*/false)) {
    exit_code = 1;
  }
  if (!write_obs_outputs(name, result, metrics_arg, timeline_arg,
                         /*force_dir=*/false)) {
    exit_code = 1;
  }
  return exit_code;
}

}  // namespace politewifi::runtime
