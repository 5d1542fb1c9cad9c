// Strict parser for the canonical JSON this repo's Json writer emits.
//
// The campaign driver reads child `pw_run` documents back (and `--city`
// reduces them into one survey result), so the writer-first Json type
// (json.h) gains exactly one reader. It accepts the full JSON value
// grammar over the writer's canonical subset — objects, arrays, strings
// with the writer's escape set (plus \uXXXX for control characters and
// \/), %lld integers and %.12g doubles — and rejects everything the
// writer never produces (NaN/Infinity literals, trailing garbage,
// unpaired surrogates).
//
// Numeric round-trip: parsing a %.12g-formatted double and re-dumping
// it reproduces the same text (one dump -> parse trip is a fixed point
// of the 12-significant-digit formatting), which is what makes reduced
// multi-process documents byte-identical to in-process ones. Doubles
// whose canonical form carries no '.', 'e' or 'E' (e.g. "3") parse as
// integers; they re-dump to the same bytes.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/json.h"

namespace politewifi::common {

/// Parses one JSON value spanning the whole input (leading/trailing
/// whitespace allowed, anything else after the value is an error).
/// Returns nullopt and fills *error (when non-null) with a
/// position-annotated message on malformed input.
std::optional<Json> parse_json(std::string_view text,
                               std::string* error = nullptr);

}  // namespace politewifi::common
