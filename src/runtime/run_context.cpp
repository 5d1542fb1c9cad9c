#include "runtime/run_context.h"

#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace politewifi::runtime {

namespace {

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool parse_param_value(const ParamSpec& spec, const common::Flag& flag,
                       ParamValue* out, std::string* error) {
  const char* kind = param_kind_name(spec.default_value);
  // A bare flag is shorthand for true on bool parameters only.
  if (!flag.value.has_value()) {
    if (std::holds_alternative<bool>(spec.default_value)) {
      *out = true;
      return true;
    }
    *error = "--" + spec.name + " needs a value (a " + std::string(kind) +
             "): --" + spec.name + "=<value>";
    return false;
  }
  const std::string& text = *flag.value;
  if (std::holds_alternative<double>(spec.default_value)) {
    double v = 0.0;
    if (!common::parse_double(text, &v)) {
      *error = "--" + spec.name + ": expected a number, got \"" + text +
               "\"";
      return false;
    }
    *out = v;
  } else if (std::holds_alternative<std::int64_t>(spec.default_value)) {
    std::int64_t v = 0;
    if (!common::parse_int64(text, &v)) {
      *error = "--" + spec.name + ": expected an integer, got \"" + text +
               "\"";
      return false;
    }
    *out = v;
  } else if (std::holds_alternative<bool>(spec.default_value)) {
    bool v = false;
    if (!common::parse_bool(text, &v)) {
      *error = "--" + spec.name + ": expected true/false, got \"" + text +
               "\"";
      return false;
    }
    *out = v;
  } else {
    *out = text;
    return true;
  }
  // Numeric bounds.
  double numeric = 0.0;
  if (const auto* d = std::get_if<double>(out)) numeric = *d;
  if (const auto* i = std::get_if<std::int64_t>(out)) {
    numeric = static_cast<double>(*i);
  }
  if (std::holds_alternative<bool>(*out)) return true;
  if (spec.min_value.has_value()) {
    const bool below = spec.min_exclusive ? numeric <= *spec.min_value
                                          : numeric < *spec.min_value;
    if (below) {
      *error = "--" + spec.name + ": " + text + " is out of range (must be " +
               (spec.min_exclusive ? "> " : ">= ") +
               param_value_text(*spec.min_value) + ")";
      return false;
    }
  }
  if (spec.max_value.has_value() && numeric > *spec.max_value) {
    *error = "--" + spec.name + ": " + text + " is out of range (must be <= " +
             param_value_text(*spec.max_value) + ")";
    return false;
  }
  return true;
}

}  // namespace

bool resolve_run(const ExperimentSpec& spec,
                 const std::vector<common::Flag>& flags, bool smoke,
                 ResolvedRun* out, std::string* error) {
  out->smoke = smoke;
  out->seed = spec.default_seed;
  out->params.clear();
  for (const auto& p : spec.params) {
    out->params[p.name] = (smoke && p.smoke_value.has_value())
                              ? *p.smoke_value
                              : p.default_value;
  }
  for (const auto& flag : flags) {
    if (flag.name == "seed") {
      std::int64_t v = 0;
      if (!flag.value.has_value() || !common::parse_int64(*flag.value, &v) ||
          v < 0) {
        *error = "--seed: expected a non-negative integer" +
                 (flag.value.has_value() ? ", got \"" + *flag.value + "\""
                                         : std::string(": --seed=<n>"));
        return false;
      }
      out->seed = static_cast<std::uint64_t>(v);
      continue;
    }
    const ParamSpec* p = spec.find_param(flag.name);
    if (p == nullptr) {
      std::string known = "--seed";
      for (const auto& candidate : spec.params) {
        known += ", --" + candidate.name;
      }
      *error = "unknown flag --" + flag.name + " for experiment '" +
               spec.name + "' (known: " + known + ")";
      return false;
    }
    ParamValue value = p->default_value;
    if (!parse_param_value(*p, flag, &value, error)) return false;
    out->params[p->name] = std::move(value);
  }
  return true;
}

RunContext::RunContext(const ExperimentSpec& spec, ResolvedRun run)
    : spec_(spec), run_(std::move(run)) {
  sink_.set_meta("experiment", spec_.name);
  sink_.set_meta("seed", static_cast<std::int64_t>(run_.seed));
  sink_.set_meta("smoke", run_.smoke);
  common::Json params = common::Json::object();
  for (const auto& [name, value] : run_.params) {
    if (const auto* d = std::get_if<double>(&value)) {
      params[name] = *d;
    } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
      params[name] = *i;
    } else if (const auto* b = std::get_if<bool>(&value)) {
      params[name] = *b;
    } else {
      params[name] = std::get<std::string>(value);
    }
  }
  sink_.set_meta("params", std::move(params));
}

std::uint64_t RunContext::derive_seed(std::string_view label) const {
  PW_COUNT(kRuntimeSubseedsDerived);
  return splitmix64(run_.seed ^ fnv1a64(label));
}

const ParamValue& RunContext::param(const std::string& name) const {
  const auto it = run_.params.find(name);
  PW_CHECK(it != run_.params.end());
  return it->second;
}

double RunContext::param_double(const std::string& name) const {
  const auto* v = std::get_if<double>(&param(name));
  PW_CHECK(v != nullptr);
  return *v;
}

std::int64_t RunContext::param_int(const std::string& name) const {
  const auto* v = std::get_if<std::int64_t>(&param(name));
  PW_CHECK(v != nullptr);
  return *v;
}

bool RunContext::param_bool(const std::string& name) const {
  const auto* v = std::get_if<bool>(&param(name));
  PW_CHECK(v != nullptr);
  return *v;
}

const std::string& RunContext::param_string(const std::string& name) const {
  const auto* v = std::get_if<std::string>(&param(name));
  PW_CHECK(v != nullptr);
  return *v;
}

std::unique_ptr<sim::Simulation> RunContext::make_sim(
    sim::MediumConfig medium, std::uint64_t seed_offset) {
  sim::SimulationConfig config;
  config.medium = std::move(medium);
  config.seed = run_.seed + seed_offset;
  PW_COUNT(kRuntimeSimsBuilt);
  return std::make_unique<sim::Simulation>(std::move(config));
}

}  // namespace politewifi::runtime
