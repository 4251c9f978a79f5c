// perfbench_driver — runs one benchmark workload on the simulated
// 4x Tesla T10 testbed and prints its metrics.
//
//   perfbench_driver --workload mandelbrot|osem|service_mix --seed N
//                    --seconds S --trace 0|1 --scratch DIR
//                    [--trace-file PATH]
//
// Phases, in order:
//  1. set-up, nine times over, each on a freshly configured machine with
//     a fresh private kernel cache under DIR; setup_s is the median;
//  2. host oracles and a short warm-up (untimed);
//  3. five measured passes of equal work (about S/5 seconds each),
//     tracing off: every end-to-end metric, host clocks as the median
//     pass, latencies pooled;
//  4. with --trace 1, one more pass with trace::Recorder on:
//     every per-layer metric. --trace-file also writes that trace (binary
//     .sktrace, or Chrome JSON for a .json path) for tools/skeltrace.
// Every output is checked against its oracle outside the timed regions.
// Each metric is printed as `metric <name> <value> <unit>`; the last line
// is one JSON object {"correct", "attempted", "failed", "metrics"} with
// the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// The exit code is 0 only when every operation succeeded and matched.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "trace/analysis.h"
#include "trace/recorder.h"
#include "trace/serialize.h"
#include "workload.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr std::uint32_t kGpus = 4;
constexpr int kSetups = 9;
/// Untraced passes over the same inputs; host clocks report the median.
constexpr int kPasses = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string traceFile;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "mandelbrot|osem|service_mix --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--trace-file PATH]\n",
               why);
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  bool haveScratch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = int(std::strtol(value.c_str(), &end, 10));
      if (o.seconds < 1) {
        usage("--seconds must be at least 1");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace takes 0 or 1");
      }
      o.trace = value == "1";
    } else if (flag == "--trace-file") {
      o.traceFile = value;
    } else if (flag == "--scratch") {
      o.scratch = value;
      haveScratch = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("not a number: " + value).c_str());
    }
  }
  if (!haveScratch) {
    usage("--scratch is required");
  }
  return o;
}

/// Drops every inherited SKELCL_* variable, so no stray knob (TRACE,
/// FUSION, ASYNC, SERIALIZE, FAULT_PLAN, SCHEDULE, DEVICES, ...) changes
/// what is measured.
void clearSkelclEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (std::strncmp(*e, "SKELCL_", 7) == 0 && eq != nullptr) {
      names.emplace_back(*e, std::size_t(eq - *e));
    }
  }
  for (const std::string& name : names) {
    ::unsetenv(name.c_str());
  }
}

std::unique_ptr<Workload> makeWorkload(const Options& o) {
  if (o.workload == "mandelbrot") {
    return makeMandelbrot(o.seed, double(o.seconds) / kPasses);
  }
  if (o.workload == "osem") {
    return makeOsem(o.seed, double(o.seconds) / kPasses);
  }
  if (o.workload == "service_mix") {
    return makeServiceMix(o.seed, double(o.seconds) / kPasses);
  }
  usage(("unknown workload " + o.workload).c_str());
}

/// A fresh 4-GPU machine and runtime, with its own empty kernel cache.
void freshRuntime(const std::string& cacheDir) {
  if (skelcl::detail::Runtime::instance().initialized()) {
    skelcl::terminate();
  }
  ::setenv("SKELCL_CACHE_DIR", cacheDir.c_str(), 1);
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(kGpus));
  skelcl::init(skelcl::DeviceSelection::nGPUs(kGpus));
}

double cpuSeconds() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return double(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         double(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double peakRssMb() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return double(u.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

void syncAllDevices() {
  auto& runtime = skelcl::detail::Runtime::instance();
  for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
    runtime.queue(d).finish();
  }
}

std::uint64_t cumulativeKernelCycles() {
  auto& runtime = skelcl::detail::Runtime::instance();
  std::uint64_t total = 0;
  for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
    total += runtime.queue(d).cumulativeKernelCycles();
  }
  return total;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0
                : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

/// Nearest-rank percentile of virtual latencies, in ms.
double percentileMs(std::vector<std::uint64_t> ns, double q) {
  if (ns.empty()) {
    return 0.0;
  }
  std::sort(ns.begin(), ns.end());
  const auto rank = std::size_t(std::ceil(q * double(ns.size())));
  return double(ns[std::clamp<std::size_t>(rank, 1, ns.size()) - 1]) * 1e-6;
}

/// One measured pass and the clocks and counters around it.
struct Measured {
  Pass pass;
  double wallS = 0;
  double cpuS = 0;
  std::uint64_t virtualNs = 0;
  std::uint64_t kernelCycles = 0;
  skelcl::KernelCache::Stats cache;
  skelcl::detail::Runtime::FusionStats fusion;
};

Measured measure(Workload& workload, int index) {
  Measured m;
  m.pass.index = index;
  syncAllDevices();
  skelcl::detail::StatsScope scope;
  const std::uint64_t cycles0 = cumulativeKernelCycles();
  const std::uint64_t virtual0 = ocl::hostTimeNs();
  const double cpu0 = cpuSeconds();
  const auto wall0 = std::chrono::steady_clock::now();

  workload.run(m.pass);
  syncAllDevices();

  m.wallS = secondsSince(wall0);
  m.cpuS = cpuSeconds() - cpu0;
  m.virtualNs = ocl::hostTimeNs() - virtual0;
  m.kernelCycles = cumulativeKernelCycles() - cycles0;
  m.cache = scope.cacheDelta();
  m.fusion = scope.fusionDelta();
  workload.check(m.pass);
  if (m.pass.capacityOpsPerS == 0 && m.virtualNs > 0) {
    m.pass.capacityOpsPerS =
        double(m.pass.attempted) / (double(m.virtualNs) * 1e-9);
  }
  return m;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Options& opt, std::chrono::steady_clock::time_point start) {
  // 1. Set-up, kSetups times; the last workload instance is measured.
  std::vector<double> setupTimes;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = k == 0 ? start : std::chrono::steady_clock::now();
    workload.reset();
    freshRuntime(opt.scratch + "/kernel-cache-" + std::to_string(k));
    workload = makeWorkload(opt);
    workload->setup();
    setupTimes.push_back(secondsSince(t0));
  }

  // 2. Oracles and warm-up, off every clock.
  workload->computeOracles();
  const auto warm0 = std::chrono::steady_clock::now();
  workload->warmUp();
  std::printf("warm-up: %.3f s\n", secondsSince(warm0));

  // 3. Tracing off: kPasses passes of equal work; every clock is the
  // median pass (the virtual ones repeat or nearly so).
  std::vector<Measured> plain;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (int k = 0; k < kPasses; ++k) {
    plain.push_back(measure(*workload, 1 + k));
    std::printf("pass %d: wall %.3f s, cpu %.3f s, virtual %.3f ms\n", k,
                plain.back().wallS, plain.back().cpuS,
                double(plain.back().virtualNs) * 1e-6);
    attempted += plain.back().pass.attempted;
    failed += plain.back().pass.failed;
  }
  const double rssMb = peakRssMb();
  const auto medianOf = [&](auto field) {
    std::vector<double> v;
    for (const Measured& m : plain) {
      v.push_back(double(field(m)));
    }
    return median(v);
  };
  const double wallS = medianOf([](const Measured& m) { return m.wallS; });
  std::vector<std::uint64_t> lat; // pooled over the passes
  for (const Measured& m : plain) {
    lat.insert(lat.end(), m.pass.latencyNs.begin(), m.pass.latencyNs.end());
  }
  std::vector<Metric> e2e = {
      {"wall_s", wallS, "s"},
      {"cpu_s", medianOf([](const Measured& m) { return m.cpuS; }), "s"},
      {"virtual_ms",
       medianOf([](const Measured& m) { return m.virtualNs; }) * 1e-6,
       "ms"},
      {"setup_s", median(setupTimes), "s"},
      {"peak_rss_mb", rssMb, "MB"},
      {"ok_ratio", double(attempted - failed) / double(attempted), "ratio"},
      {"job_p50_ms", percentileMs(lat, 0.50), "ms"},
      {"job_p99_ms", percentileMs(lat, 0.99), "ms"},
      {"capacity_jps",
       medianOf([](const Measured& m) { return m.pass.capacityOpsPerS; }),
       "1/s"},
  };
  std::printf("workload %s seed %llu: %d passes of %llu operations, %zu "
              "latency samples, fail_ratio %.6f\n",
              opt.workload.c_str(), (unsigned long long)opt.seed, kPasses,
              (unsigned long long)plain.front().pass.attempted, lat.size(),
              double(failed) / double(attempted));
  printMetrics(e2e);

  // 4. Tracing on: per-layer metrics from the same inputs.
  std::vector<Metric> layers;
  if (opt.trace) {
    trace::Recorder::instance().start();
    Measured traced = measure(*workload, kPasses + 1);
    const trace::Trace tr = trace::Recorder::instance().stop();
    const trace::Report r = trace::analyze(tr);
    if (!opt.traceFile.empty()) {
      trace::writeTraceFile(opt.traceFile, tr);
    }
    attempted += traced.pass.attempted;
    failed += traced.pass.failed;

    std::uint64_t computeBusyNs = 0;
    std::uint64_t dmaBusyNs = 0;
    for (const trace::DeviceReport& d : r.devices) {
      computeBusyNs += d.engines[0].busyNs;
      dmaBusyNs += d.dmaBusyNs;
    }
    const Timers& t = traced.pass.timers;
    const ServiceCounts& s = traced.pass.service;
    const double mb = 1.0 / double(1 << 20);
    layers = {
        {"job_samples", double(lat.size()), "count"},
        {"clc.builds", double(traced.cache.misses), "count"},
        {"clc.build_s", traced.cache.buildSeconds, "s"},
        {"clc.kernel_mcycles", double(r.kernelCycles) * 1e-6, "Mcycles"},
        {"clc.vm_mcycles_per_s",
         medianOf([](const Measured& m) {
           return double(m.kernelCycles) * 1e-6 / m.wallS;
         }),
         "Mcycles/s"},
        {"ocl.h2d_mb", double(r.h2dBytes) * mb, "MB"},
        {"ocl.d2h_mb", double(r.d2hBytes) * mb, "MB"},
        {"ocl.compute_busy_ms", double(computeBusyNs) * 1e-6, "ms"},
        {"ocl.dma_busy_ms", double(dmaBusyNs) * 1e-6, "ms"},
        {"ocl.overlap_ratio", r.overlapRatio, "ratio"},
        {"ocl.critical_path_ms", double(r.criticalPathNs) * 1e-6, "ms"},
        {"ocl.imbalance", r.computeImbalance, "ratio"},
        {"ocl.launches", double(r.kernelLaunches), "count"},
        {"skelcl.calls", double(t.calls), "count"},
        {"skelcl.call_us", t.calls ? t.callS / double(t.calls) * 1e6 : 0,
         "us"},
        {"skelcl.consume_ms", t.consumeS * 1e3, "ms"},
        {"skelcl.fused_stages", double(traced.fusion.fusedStages), "count"},
        {"skelcl.intermediate_mb", double(r.intermediateBytes) * mb, "MB"},
        {"skelcl.halo_mb", double(r.haloBytes) * mb, "MB"},
        {"skelcl.sched_jobs", double(r.schedulerJobs), "count"},
        {"skelcl.sched_wait_ms", double(r.schedQueueWaitNs) * 1e-6, "ms"},
        {"service.batches", double(s.batches), "count"},
        {"service.coalesced_jobs", double(s.coalescedJobs), "count"},
        {"service.max_batch", double(s.maxBatch), "count"},
        {"service.queue_wait_ms", double(s.queueWaitNs) * 1e-6, "ms"},
        {"service.rejected", double(s.rejected), "count"},
        {"service.failed", double(s.failed), "count"},
        {"service.submit_us",
         t.submits ? t.submitS / double(t.submits) * 1e6 : 0, "us"},
        {"service.pump_s", t.pumpS, "s"},
        {"trace.overhead", traced.wallS / wallS, "ratio"},
        {"trace.records",
         double(tr.commands.size() + tr.hostSpans.size() +
                tr.counters.size()),
         "count"},
    };
    printMetrics(layers);
  }

  workload.reset();
  skelcl::terminate();

  const bool correct = failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : opt.trace ? layers : e2e) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const perfbench::Options opt = perfbench::parseArgs(argc, argv);
  perfbench::clearSkelclEnvironment();
  try {
    return perfbench::run(opt, start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
