#include "common/jsonl.h"

#include <cstdio>

#include "common/json_parse.h"

namespace politewifi::common {

bool read_whole_file(const std::string& path, std::string* out,
                     std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  out->clear();
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) *error = "read error on " + path;
  return ok;
}

bool write_file_atomic(const std::string& path, const std::string& text,
                       std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    *error = "cannot open " + tmp;
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fflush(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    *error = "short write on " + tmp;
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "cannot rename " + tmp + " over " + path;
    return false;
  }
  return true;
}

bool read_jsonl_file(const std::string& path, JsonlReadResult* out,
                     std::string* error) {
  out->records.clear();
  out->torn_tail = false;
  out->torn_tail_offset = 0;
  std::string text;
  if (!read_whole_file(path, &text, error)) return false;

  std::size_t line_start = 0;
  std::size_t line_number = 0;
  while (line_start < text.size()) {
    ++line_number;
    std::size_t newline = text.find('\n', line_start);
    const bool complete = newline != std::string::npos;
    if (!complete) newline = text.size();
    const std::string_view line(text.data() + line_start,
                                newline - line_start);
    std::string parse_error;
    auto record = parse_json(line, &parse_error);
    if (!record.has_value()) {
      if (!complete) {
        // Partial final line: the writer died mid-append. By the append
        // protocol the record was never durable; report, don't fail.
        out->torn_tail = true;
        out->torn_tail_offset = line_start;
        return true;
      }
      *error = path + " line " + std::to_string(line_number) +
               ": corrupt journal record: " + parse_error;
      return false;
    }
    out->records.push_back(std::move(*record));
    line_start = newline + 1;
  }
  return true;
}

bool append_jsonl_record(const std::string& path, const Json& record,
                         std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    *error = "cannot open " + path + " for append";
    return false;
  }
  const std::string line = record.dump_compact() + "\n";
  const std::size_t written = std::fwrite(line.data(), 1, line.size(), f);
  // fflush pushes the line to the OS before the caller marks the job
  // durable; a torn tail can therefore only ever be the newest record.
  const bool ok = written == line.size() && std::fflush(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    *error = "short write appending to " + path;
    return false;
  }
  return true;
}

}  // namespace politewifi::common
