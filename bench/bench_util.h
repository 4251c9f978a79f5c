// Shared helpers for the benchmark harnesses that regenerate the paper's
// figures and tables. Each bench binary prints the paper's reported
// numbers next to the values measured on the simulated testbed, so the
// shape comparison is visible in one place (see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/byte_stream.h"
#include "common/env.h"
#include "common/string_util.h"
#include "ocl/ocl.h"
#include "skelcl/skelcl.h"
#include "trace/recorder.h"
#include "trace/serialize.h"

namespace bench {

/// Counts non-blank, non-comment lines of the file (the LoC metric used
/// for every program-size comparison).
inline std::size_t fileLoc(const std::string& path) {
  const auto bytes = common::readFile(path);
  return common::countLinesOfCode(
      std::string(bytes.begin(), bytes.end()));
}

/// Workload scale factor from SKELCL_BENCH_SCALE (default 1.0). Larger
/// values enlarge workloads toward the paper's sizes; the default keeps
/// every binary comfortable on an interpreted substrate.
inline double scale() {
  return common::envDouble("SKELCL_BENCH_SCALE", 1.0);
}

/// Trace destination requested via SKELCL_TRACE, claimed by the bench
/// harness: the first call caches the value and *unsets* the variable so
/// the SkelCL runtime does not also try to manage the trace across the
/// init()/terminate() cycles benches run internally. Benches that
/// support tracing wrap each measured region in a ScopedTrace (or end it
/// with stopTrace), which derive per-run file names from this base path.
inline const std::string& traceSpec() {
  static const std::string spec = [] {
    std::string s = common::envStr("SKELCL_TRACE");
    if (!s.empty()) {
      ::unsetenv("SKELCL_TRACE");
    }
    return s;
  }();
  return spec;
}

/// Stops the recorder and returns what it recorded, after writing it to
/// `<traceSpec>.<tag>.sktrace` (binary skeltrace format) when
/// SKELCL_TRACE was set; a failed write is reported, not fatal. A bench
/// that reads its own figures from the trace calls
/// trace::Recorder::start() whatever SKELCL_TRACE says and ends the
/// region here, so what it prints and what skeltrace reports on the file
/// come from the same records.
inline trace::Trace stopTrace(const std::string& tag) {
  trace::Trace recorded = trace::Recorder::instance().stop();
  if (!traceSpec().empty()) {
    const std::string path = traceSpec() + "." + tag + ".sktrace";
    try {
      trace::writeTraceFile(path, recorded);
      std::printf("trace: %s\n", path.c_str());
    } catch (const common::Error& e) {
      std::fprintf(stderr, "cannot write trace %s: %s\n", path.c_str(),
                   e.what());
    }
  }
  return recorded;
}

/// Records one benchmark run into `<traceSpec>.<tag>.sktrace`. No-op
/// when SKELCL_TRACE was not set. Construct after the scenario decided
/// its env knobs and before setupSystem(); the trace is written at scope
/// exit.
class ScopedTrace {
public:
  explicit ScopedTrace(std::string tag) : tag_(std::move(tag)) {
    if (!traceSpec().empty()) {
      trace::Recorder::instance().start();
    }
  }

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  ~ScopedTrace() {
    if (!traceSpec().empty()) {
      stopTrace(tag_);
    }
  }

private:
  std::string tag_;
};

/// Builds the machine-readable `BENCH {...}` line every bench prints per
/// measurement (one JSON object per line; EXPERIMENTS.md scrapes them).
/// print() appends the trace file base when SKELCL_TRACE is active, so
/// results and their traces stay associated.
class BenchJson {
public:
  explicit BenchJson(const std::string& benchName) {
    body_ = "\"bench\":\"" + benchName + "\"";
  }

  BenchJson& field(const std::string& key, const std::string& value) {
    return raw(key, "\"" + value + "\"");
  }
  BenchJson& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  BenchJson& field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", value);
    return raw(key, buf);
  }
  BenchJson& field(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  BenchJson& field(const std::string& key, int value) {
    return raw(key, std::to_string(value));
  }
  BenchJson& field(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }

  void print() {
    if (!traceSpec().empty()) {
      field("trace", traceSpec());
    }
    std::printf("BENCH {%s}\n", body_.c_str());
  }

private:
  BenchJson& raw(const std::string& key, const std::string& json) {
    body_ += ",\"" + key + "\":" + json;
    return *this;
  }

  std::string body_;
};

/// Points the kernel cache somewhere writable and deterministic.
inline void setupCacheDir(const char* name) {
  const std::string dir = std::string("/tmp/skelcl-bench-cache-") + name;
  ::setenv("SKELCL_CACHE_DIR", dir.c_str(), 1);
}

/// Configures the paper's testbed with `gpus` GPUs and initializes
/// SkelCL on them.
inline void setupSystem(std::uint32_t gpus) {
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
  skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
}

/// Blocks the virtual host until every SkelCL device drained its queue.
inline void syncAllDevices() {
  auto& runtime = skelcl::detail::Runtime::instance();
  for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
    runtime.queue(d).finish();
  }
}

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void subheading(const std::string& title) {
  std::printf("--- %s ---\n", title.c_str());
}

} // namespace bench
