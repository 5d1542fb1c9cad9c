// A scratch directory for tests that write files: created fresh under
// TMPDIR (or /tmp) and removed, with everything in it, when the object
// goes out of scope, so a test run leaves nothing behind.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace politewifi {

class TempDir {
 public:
  /// Creates <TMPDIR>/<prefix>.XXXXXX.
  explicit TempDir(const std::string& prefix) {
    const char* tmp = std::getenv("TMPDIR");
    path_ = std::string(tmp != nullptr ? tmp : "/tmp") + "/" + prefix +
            ".XXXXXX";
    EXPECT_NE(mkdtemp(path_.data()), nullptr) << path_;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace politewifi
