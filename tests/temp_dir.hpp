#pragma once

#include <atomic>
#include <filesystem>
#include <string>

#include <unistd.h>

namespace eblnet::testing {

/// RAII scratch directory under the system temp dir, unique per process
/// and per instance, removed (recursively) on destruction. Used by the
/// bench CLI tests, which need a real file to put a path under.
class TempDir {
 public:
  TempDir() {
    static std::atomic<unsigned> seq{0};
    path_ = std::filesystem::temp_directory_path() /
            ("eblnet_test_" + std::to_string(::getpid()) + "_" + std::to_string(seq++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;  // best-effort cleanup; never throw from a dtor
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace eblnet::testing
