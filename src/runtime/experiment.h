// The declarative experiment contract.
//
// The paper's evidence is a *suite* of experiments (Table 1/2, Figs
// 2-6), and the follow-up literature keeps adding members to the same
// family — probe a victim, elicit ACKs, measure something. Instead of
// one bespoke main() per member, every experiment here declares itself
// as data (an ExperimentSpec: name, knobs, defaults, bounds) and plugs
// its logic into a registry, so sweeps, golden gating and new frontends
// all speak one interface.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace politewifi::runtime {

class RunContext;

/// The value a parameter can take. The variant's alternative *is* the
/// parameter's type: a spec whose default is `2.5` declares a double
/// knob, `std::int64_t{30}` an integer one, and CLI input is parsed and
/// validated against that declared type (never coerced).
using ParamValue = std::variant<double, std::int64_t, bool, std::string>;

const char* param_kind_name(const ParamValue& v);

/// Renders a value the way the CLI would accept it (`0.02`, `30`,
/// `true`, `text`).
std::string param_value_text(const ParamValue& v);

struct ParamSpec {
  std::string name;          // CLI flag: --<name>=<value>
  std::string description;   // one line, shown by `pw_run --list`
  ParamValue default_value;
  /// Replaces the default under `--smoke` (explicit CLI input still
  /// wins). Unset = the default is already smoke-cheap.
  std::optional<ParamValue> smoke_value;
  // Bounds for numeric kinds. min_exclusive makes min_value an open
  // bound — e.g. a survey scale must be strictly positive.
  std::optional<double> min_value;
  std::optional<double> max_value;
  bool min_exclusive = false;
};

struct ExperimentSpec {
  std::string name;         // registry key: [a-z0-9_]+
  std::string summary;      // one line for `pw_run --list`
  std::uint64_t default_seed = 42;
  std::vector<ParamSpec> params;  // declaration order = --list order

  const ParamSpec* find_param(const std::string& param_name) const;
};

class Experiment {
 public:
  virtual ~Experiment() = default;

  virtual const ExperimentSpec& spec() const = 0;

  /// Runs to completion. Human-readable narration goes to stdout;
  /// structured results go into ctx.results(). A failed run calls
  /// ctx.fail().
  virtual void run(RunContext& ctx) = 0;
};

}  // namespace politewifi::runtime
