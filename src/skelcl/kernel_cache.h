// On-disk kernel cache (paper, Sec. III-B):
//
//   "Compiling the source code every time from source is a time-consuming
//    task [...] Therefore, SkelCL saves already compiled kernels on disk.
//    They can be loaded later if the same kernel is used again."
//
// A kernel is the same when its source is the same: every program is
// built with kDefaultBuildOptions, so the build is a pure function of the
// source. One source has one entry, `<sha256(source)>.clcbin`. An entry
// written by another library build is found under the same name and
// rejected on load — by the deserializer's format-version check, or
// because the optimization level it records is not kDefaultBuildOptions'
// — and the rebuild overwrites it in place. On-disk blobs are
// additionally wrapped in an integrity envelope (magic, payload length,
// FNV-1a64 digest), so a truncated or bit-flipped entry is detected up
// front and silently rebuilt instead of reaching the deserializer.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "ocl/ocl.h"

namespace skelcl {

/// Build options of every cached program: full bytecode optimization
/// (see clc/opt.h).
inline constexpr const char* kDefaultBuildOptions = "-cl-opt-level=2";

class KernelCache {
public:
  /// `directory`: cache location; empty selects $SKELCL_CACHE_DIR or
  /// $HOME/.skelcl/cache (created on first store).
  explicit KernelCache(std::string directory = "");

  /// Returns a *built* program for `source`: loaded from disk when a
  /// valid entry exists, compiled with kDefaultBuildOptions (and stored)
  /// otherwise.
  ocl::Program getOrBuild(const ocl::Context& context,
                          const std::string& source);

  const std::string& directory() const noexcept { return directory_; }

  /// Removes every cache entry in the directory.
  void clear();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    double buildSeconds = 0; // time spent building from source

    /// What happened between two snapshots (`later - earlier`); the
    /// scoped-accounting primitive per-tenant bench scenarios use so
    /// back-to-back runs don't bleed into each other.
    friend Stats operator-(const Stats& later, const Stats& earlier) {
      Stats delta;
      delta.hits = later.hits - earlier.hits;
      delta.misses = later.misses - earlier.misses;
      delta.buildSeconds = later.buildSeconds - earlier.buildSeconds;
      return delta;
    }
  };
  /// Snapshot: getOrBuild may run concurrently on several threads, so
  /// counters live under a mutex and callers get a copy.
  Stats stats() const {
    std::lock_guard lock(statsMutex_);
    return stats_;
  }

private:
  std::string entryPath(const std::string& source) const;

  std::string directory_;
  mutable std::mutex statsMutex_;
  Stats stats_;
};

} // namespace skelcl
