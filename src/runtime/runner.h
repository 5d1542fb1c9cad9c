// The one driver every frontend shares.
//
// `pw_run` (the CLI), the thin examples/ wrappers, and the runtime tests
// all execute experiments through run_experiment(): registry lookup,
// flag resolution against the spec, RunContext construction, the run
// itself, and the canonical JSON document out the other side. No
// frontend owns any experiment logic.
#pragma once

#include <string>
#include <vector>

#include "common/flags.h"

namespace politewifi::runtime {

/// Observability options for one run (the CLI's --metrics/--timeline).
struct RunOptions {
  /// Collect the obs/ metrics registry over the run and append the
  /// canonical `metrics` block to the JSON document. The registry is
  /// reset first, so the block covers exactly this run.
  bool metrics = false;
  /// Record a Chrome-tracing timeline over the run (radio power-state
  /// dwells in sim time + PW_TIMEIT wall spans); the trace comes back
  /// in `timeline_json`. --metrics implies a timeline at the CLI.
  bool timeline = false;
};

struct RunExperimentResult {
  /// 0 = success, 1 = the experiment ran and reported failure,
  /// 2 = usage error (unknown experiment / bad flags; nothing ran).
  int exit_code = 0;
  /// Canonical JSON document (trailing newline) when the run executed.
  std::string json;
  /// Canonical `metrics` block alone (trailing newline) when
  /// RunOptions::metrics asked for it — what --metrics=PATH writes.
  std::string metrics_json;
  /// Chrome trace-event JSON (trailing newline) when
  /// RunOptions::timeline asked for it. Diagnostics only: wall times
  /// and track numbering are not covered by the determinism contract.
  std::string timeline_json;
  /// Usage-ready diagnostic when exit_code == 2.
  std::string error;
};

/// Runs one registered experiment. Human narration goes to stdout (the
/// experiment's own, byte-identical to the historical examples/); the
/// structured document comes back in `json`.
RunExperimentResult run_experiment(const std::string& name,
                                   const std::vector<common::Flag>& flags,
                                   bool smoke,
                                   const RunOptions& options = {});

/// Full pw_run CLI (--list / --names / <name> / --all, --smoke, --json,
/// --campaign / --city).
int pw_run_main(int argc, char** argv);

/// Writes one output document where its flag asked. `label` names the
/// flag in diagnostics ("json", "metrics"); `default_name` is used when
/// `arg` is empty (bare flag); `force_dir` treats `arg` as a directory
/// (--all mode). Narrates the path on success; false on I/O failure.
bool write_output(const char* label, const std::string& default_name,
                  const std::string& text, const std::string& arg,
                  bool force_dir);

/// Shared main() for the thin examples/ wrappers: legacy positional
/// arguments map onto the named parameters in `positional_params`
/// (e.g. wardriving's trailing scale), then modern --flags apply on
/// top. Malformed input gets a usage message instead of atof-style
/// silent coercion. stdout is byte-identical to the pre-registry
/// example binaries.
int example_main(const std::string& name, int argc, char** argv,
                 const std::vector<std::string>& positional_params = {});

}  // namespace politewifi::runtime
