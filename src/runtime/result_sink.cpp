#include "runtime/result_sink.h"

namespace politewifi::runtime {

ResultSink::ResultSink()
    : meta_(common::Json::object()), results_(common::Json::object()) {}

void ResultSink::set_meta(const std::string& key, common::Json value) {
  meta_[key] = std::move(value);
}

common::Json ResultSink::document() const {
  common::Json doc = meta_;
  doc["results"] = results_;
  doc["failed"] = failed_;
  return doc;
}

std::string ResultSink::canonical_text() const {
  return document().dump() + "\n";
}

}  // namespace politewifi::runtime
