// Strict command-line parsing for the experiment runtime.
//
// Exists because of a real bug class: the wardriving frontend once ran
// `std::atof(argv[1])`, so `./wardriving fast` silently surveyed a city
// scaled by 0.0 — an empty town and a meaningless result. Everything
// here rejects malformed input loudly instead of coercing it: scalar
// parsers require the whole token to parse, and the argv splitter
// reports unknown option syntax instead of guessing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace politewifi::common {

/// One `--name=value` or bare `--name` option. A bare flag carries no
/// value (std::nullopt) — distinct from `--name=` which carries an empty
/// one, so "missing value" diagnostics stay precise.
struct Flag {
  std::string name;                  // without the leading dashes
  std::optional<std::string> value;
};

struct ParsedArgs {
  std::vector<Flag> flags;           // in command-line order
  std::vector<std::string> positionals;

  bool has_flag(std::string_view name) const;
  /// Last occurrence wins (so a script can append overrides).
  const Flag* find_flag(std::string_view name) const;
};

/// Splits argv[1..argc) into flags and positionals. `--` ends option
/// parsing; everything after it is positional. Returns nullopt and fills
/// *error for single-dash options or an empty option name.
std::optional<ParsedArgs> parse_args(int argc, const char* const* argv,
                                     std::string* error);

/// Strict scalar parsers: the whole string must be consumed and the
/// value must be finite/in-range. Empty input fails.
bool parse_double(std::string_view text, double* out);
bool parse_int64(std::string_view text, std::int64_t* out);
/// Accepts: true/false, 1/0, yes/no, on/off (case-sensitive).
bool parse_bool(std::string_view text, bool* out);

}  // namespace politewifi::common
