#pragma once
// A private temporary directory for one test, removed with everything in
// it when the test ends.  mkdtemp picks a fresh name atomically, so two
// tests -- in one process or in the parallel processes of a ctest run --
// never share a directory, whatever their tags.

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace nanocost::testing {

class TempDir final {
 public:
  /// `tag` only makes the directory recognizable on disk.
  explicit TempDir(const std::string& tag) {
    std::string path =
        (std::filesystem::temp_directory_path() / ("nanocost_" + tag + ".XXXXXX")).string();
    if (::mkdtemp(path.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + path);
    }
    path_ = std::move(path);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// `name` inside the directory.
  [[nodiscard]] std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace nanocost::testing
