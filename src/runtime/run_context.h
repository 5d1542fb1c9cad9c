// RunContext: everything one experiment run owns.
//
// The context is where the declarative half (ExperimentSpec + CLI
// overrides) turns operational: resolved parameter values, the run
// seed and deterministic sub-seed derivation, Simulation construction
// (so no experiment ever hand-rolls a seed), and the ResultSink the run
// reports into.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/flags.h"
#include "runtime/experiment.h"
#include "runtime/result_sink.h"
#include "sim/network.h"

namespace politewifi::runtime {

/// A spec with every parameter resolved to a concrete value.
struct ResolvedRun {
  std::uint64_t seed = 0;
  bool smoke = false;
  std::map<std::string, ParamValue> params;
};

/// Resolves CLI flags against a spec. Precedence per parameter:
/// explicit flag > smoke_value (when `smoke`) > default_value. The
/// reserved `--seed` flag is accepted for every experiment. Unknown
/// flags, unparseable or out-of-bounds values, and bare flags on
/// non-bool parameters all fail with a usage-ready *error message.
bool resolve_run(const ExperimentSpec& spec,
                 const std::vector<common::Flag>& flags, bool smoke,
                 ResolvedRun* out, std::string* error);

class RunContext {
 public:
  RunContext(const ExperimentSpec& spec, ResolvedRun run);

  const ExperimentSpec& spec() const { return spec_; }
  std::uint64_t seed() const { return run_.seed; }
  bool smoke() const { return run_.smoke; }

  /// Deterministic sub-seed for a named concern ("typing", "bedroom"):
  /// splitmix64 over the run seed and an FNV-1a hash of the label, so
  /// distinct labels decorrelate and the derivation never touches a
  /// wall clock.
  std::uint64_t derive_seed(std::string_view label) const;

  // Typed parameter access; the parameter must exist in the spec with
  // the matching declared type (contract-checked).
  double param_double(const std::string& name) const;
  std::int64_t param_int(const std::string& name) const;
  bool param_bool(const std::string& name) const;
  const std::string& param_string(const std::string& name) const;

  /// The one sanctioned way an experiment builds a Simulation: seeded
  /// from the run seed (+ a small offset for multi-simulation
  /// experiments, e.g. the defending rounds).
  std::unique_ptr<sim::Simulation> make_sim(sim::MediumConfig medium = {},
                                            std::uint64_t seed_offset = 0);

  ResultSink& sink() { return sink_; }
  common::Json& results() { return sink_.results(); }

  /// Marks the run failed (non-zero exit from the CLI; "failed": true
  /// in the document). The experiment still narrates its own failure.
  void fail() { sink_.set_failed(true); }
  bool failed() const { return sink_.failed(); }

 private:
  const ParamValue& param(const std::string& name) const;

  const ExperimentSpec& spec_;
  ResolvedRun run_;
  ResultSink sink_;
};

}  // namespace politewifi::runtime
