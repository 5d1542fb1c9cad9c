// ResultSink: one canonical document per experiment run.
//
// Each run emits both human-readable narration (stdout) and a canonical
// key-sorted JSON document shaped as:
//
//   { "experiment": ..., "seed": ..., "smoke": ..., "params": {...},
//     "results": {...}, "failed": ... }
//
// The "results" subtree is the experiment's to fill (usually from the
// pipeline result structs' to_json()). Everything outside it is stamped
// by the runtime, and nothing wall-clock-dependent is allowed in the
// document: the golden-regression and determinism gates diff this text.
#pragma once

#include <string>

#include "common/json.h"

namespace politewifi::runtime {

class ResultSink {
 public:
  ResultSink();

  /// Mutable "results" subtree for the running experiment.
  common::Json& results() { return results_; }

  void set_meta(const std::string& key, common::Json value);
  void set_failed(bool failed) { failed_ = failed; }
  bool failed() const { return failed_; }

  /// Assembles the full document (meta + results + failed).
  common::Json document() const;

  /// document() as canonical text with a trailing newline.
  std::string canonical_text() const;

 private:
  common::Json meta_;     // object: experiment/seed/smoke/params
  common::Json results_;  // object
  bool failed_ = false;
};

}  // namespace politewifi::runtime
