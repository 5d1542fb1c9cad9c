// The experiment registry: named factories for everything `pw_run` (or
// any future batch/serving frontend) can execute.
//
// Registration is explicit rather than static-initializer magic: the
// built-in attack/sensing/defense pipelines register through
// register_builtin_experiments() (runtime/experiments/all.h), which a
// static library can't silently drop and which keeps registration order
// deterministic. The registry itself stores factories in a sorted map,
// so listing order is the name order, never link order.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/experiment.h"

namespace politewifi::runtime {

class ExperimentRegistry {
 public:
  using Factory = std::unique_ptr<Experiment> (*)();

  /// The process-wide registry used by pw_run and the tests.
  static ExperimentRegistry& instance();

  ExperimentRegistry() = default;

  /// Registers a factory under `name`. Rejects (returns false) duplicate
  /// names, empty names, and names with characters outside [a-z0-9_] —
  /// names are CLI arguments and JSON filenames.
  bool add(const std::string& name, Factory factory);

  std::size_t size() const { return factories_.size(); }

  /// Instantiates the named experiment; nullptr when unknown.
  std::unique_ptr<Experiment> create(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, Factory> factories_;
};

}  // namespace politewifi::runtime
