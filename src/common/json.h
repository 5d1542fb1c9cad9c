// A small JSON document tree with *canonical* serialization.
//
// Every experiment result, perf report and golden file in this repo is
// compared as text (golden-regression gating, the determinism property
// "same spec + seed => byte-identical JSON"), so the writer guarantees
// one canonical form: object keys are emitted in sorted order, numbers
// have exactly one formatting, and indentation is fixed. Two Json trees
// holding equal values always dump() to equal bytes.
//
// This is a writer-first type; tools/golden_compare.py does the
// tolerance-aware reading on the Python side. The one C++ reader is
// json_parse.h: the campaign driver parses child pw_run documents back
// in order to reduce them, relying on dump() being a parse() fixed point.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace politewifi::common {

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  Json() = default;  // null
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}
  Json(unsigned v) : kind_(Kind::kInt), int_(v) {}
  Json(long v) : kind_(Kind::kInt), int_(v) {}
  Json(long long v) : kind_(Kind::kInt), int_(v) {}
  Json(unsigned long v);       // checks the value fits in a signed 64-bit
  Json(unsigned long long v);  // checks the value fits in a signed 64-bit
  Json(double v) : kind_(Kind::kDouble), double_(v) {}
  Json(const char* v) : kind_(Kind::kString), string_(v) {}
  Json(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Object access; a null value silently promotes to an empty object
  /// (so `doc["a"]["b"] = 1` builds the path). Checks against other kinds.
  Json& operator[](const std::string& key);

  /// Object lookup without insertion; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;

  /// Array append; a null value promotes to an empty array.
  void push_back(Json v);

  /// Array element read (checked: must be an array, index in range).
  const Json& at(std::size_t index) const;

  /// Element count of an array or object (0 for scalars).
  std::size_t size() const;

  // Typed reads (checked): used by tests and the CLI.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;  // accepts kInt too
  const std::string& as_string() const;

  /// Key-sorted entries of an object (checked: must be an object). The
  /// campaign manifest parser walks this to reject unknown keys instead
  /// of silently ignoring author typos.
  const std::map<std::string, Json>& as_object() const;

  /// Canonical text: 2-space indentation, keys sorted, '\n'-separated.
  /// Appending a final newline is the writer's job (write_file does).
  std::string dump() const;

  /// Canonical single-line text: same sorted keys and scalar formatting
  /// as dump(), zero whitespace — the JSONL record form (jsonl.h), where
  /// one record must be one line. parse_json accepts both forms and
  /// equal trees produce equal bytes under either.
  std::string dump_compact() const;

 private:
  void dump_to(std::string* out, int depth) const;
  void dump_compact_to(std::string* out) const;
  static void append_escaped(std::string* out, const std::string& s);
  static void append_double(std::string* out, double v);

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

}  // namespace politewifi::common
