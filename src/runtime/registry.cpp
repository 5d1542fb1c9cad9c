#include "runtime/registry.h"

namespace politewifi::runtime {

namespace {

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

ExperimentRegistry& ExperimentRegistry::instance() {
  static ExperimentRegistry registry;
  return registry;
}

bool ExperimentRegistry::add(const std::string& name, Factory factory) {
  if (!valid_name(name) || factory == nullptr) return false;
  return factories_.emplace(name, factory).second;
}

std::unique_ptr<Experiment> ExperimentRegistry::create(
    const std::string& name) const {
  const auto it = factories_.find(name);
  return it == factories_.end() ? nullptr : it->second();
}

std::vector<std::string> ExperimentRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

}  // namespace politewifi::runtime
