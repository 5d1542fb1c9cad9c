// Append-only JSONL journal I/O on the strict JSON parser, and the
// whole-file read and crash-safe replace that the campaign runtime's
// other artifacts use.
//
// The campaign runtime (runtime/campaign/) checkpoints completed jobs
// into an append-only `results.jsonl`: one canonical compact record per
// line (Json::dump_compact + '\n'), flushed before the job is
// considered durable. Reading is strict — every interior line must
// parse as exactly one JSON value — with one deliberate carve-out: a
// final line with no trailing newline is a *torn tail* (the writer
// died mid-append). A torn record was never durable by the write
// protocol, so readers surface it as a flag rather than a parse error
// and let policy decide (the campaign loader refuses to resume over
// one; `tools/pw_campaign.py repair` truncates it).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.h"

namespace politewifi::common {

struct JsonlReadResult {
  std::vector<Json> records;
  /// A trailing partial line (no '\n') that failed to parse. Empty when
  /// the file ended cleanly. Complete lines that fail to parse are hard
  /// errors, never torn tails.
  bool torn_tail = false;
  /// Byte offset where the torn tail starts (truncate here to repair).
  std::size_t torn_tail_offset = 0;
};

/// Reads every record of a JSONL file. Returns false (with *error) on
/// missing file or a corrupt interior line; a torn tail is reported via
/// the result, not as an error.
bool read_jsonl_file(const std::string& path, JsonlReadResult* out,
                     std::string* error);

/// Appends one record (compact canonical form + '\n') and flushes it to
/// the OS before returning, so a record that read_jsonl_file can see
/// complete survives the writer's death. Creates the file if needed.
bool append_jsonl_record(const std::string& path, const Json& record,
                         std::string* error);

/// Reads the whole file into *out. Returns false (with *error "cannot
/// open PATH" or "read error on PATH") when it cannot.
bool read_whole_file(const std::string& path, std::string* out,
                     std::string* error);

/// Replaces the file at `path` with `text`: writes and flushes PATH.tmp,
/// then renames it over `path`, so a crash mid-write never leaves a
/// truncated file there. Returns false (with *error "cannot open
/// PATH.tmp", "short write on PATH.tmp" or "cannot rename PATH.tmp over
/// PATH") on failure.
bool write_file_atomic(const std::string& path, const std::string& text,
                       std::string* error);

}  // namespace politewifi::common
