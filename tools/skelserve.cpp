// skelserve — in-process multi-tenant job-server driver for the
// simulated SkelCL runtime.
//
//   skelserve [--tenants N] [--jobs J] [--gpus G]
//             [--policy fifo|fair|priority] [--queue-cap C] [--batch N]
//             [--pump] [--n ELEMENTS] [--trace FILE]
//
// Spawns one client thread per tenant (or, with --pump, submits
// everything up front and runs the deterministic caller-thread
// dispatcher), pushes J map/zip jobs per tenant through a JobServer,
// and prints the per-tenant accounting table (jobs, device-cycles,
// bytes moved, queue wait, p50/p99 latency) plus the dispatcher's window
// stats. --batch sets how many jobs may be in flight at once (1 runs
// each job to completion before the next starts). --trace records the
// run for `skeltrace report`, whose tenant section is fed by the same
// accounting. The service starts from ServiceConfig's defaults; the
// flags override them.
//
// Exit status: 0 when every job completed with the expected checksum,
// 1 on any failed job or checksum mismatch, 2 on usage errors.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/env.h"
#include "service/service.h"
#include "skelcl/skelcl.h"
#include "trace/recorder.h"
#include "trace/serialize.h"

namespace {

namespace service = skelcl::service;

int usage() {
  std::fprintf(
      stderr,
      "usage: skelserve [--tenants N] [--jobs J] [--gpus G]\n"
      "                 [--policy fifo|fair|priority] [--queue-cap C]\n"
      "                 [--batch N] [--pump] [--n ELEMENTS]"
      " [--trace FILE]\n");
  return 2;
}

struct JobResult {
  skelcl::Vector<float> result;
  float checksum = 0;
  bool checked = false;
};

/// Deterministic map/zip chain for tenant `t`, job `j`, pinned to a GPU
/// derived from both — the same function the expected-value check
/// recomputes on the host.
service::Job makeJob(std::size_t t, std::size_t j, std::size_t n,
                     std::size_t gpus,
                     const std::shared_ptr<JobResult>& out) {
  service::Job job;
  job.programKey = "skelserve-mapzip";
  job.work = [=](service::JobContext& ctx) {
    skelcl::Zip<float> mult(
        "float svcmul(float x, float y) { return x * y; }");
    skelcl::Map<float> scale(
        "float svcscale(float x) { return 0.5f * x + 1.0f; }");
    std::vector<float> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = float((i + 3 * t + j) % 31) * 0.25f;
      b[i] = float((i * 7 + t + 5 * j) % 29) * 0.5f;
    }
    skelcl::Vector<float> va(std::move(a));
    skelcl::Vector<float> vb(std::move(b));
    const std::size_t gpu = (t * 3 + j) % gpus;
    va.setDistribution(skelcl::Distribution::Single, gpu);
    vb.setDistribution(skelcl::Distribution::Single, gpu);
    out->result = scale(mult(va, vb));
    ctx.defer(out->result);
  };
  job.consume = [=] {
    const std::vector<float>& data = out->result.hostData();
    float sum = 0;
    for (std::size_t i = 0; i < data.size(); i += 97) {
      sum += data[i];
    }
    float expected = 0;
    for (std::size_t i = 0; i < n; i += 97) {
      const float a = float((i + 3 * t + j) % 31) * 0.25f;
      const float b = float((i * 7 + t + 5 * j) % 29) * 0.5f;
      expected += 0.5f * (a * b) + 1.0f;
    }
    out->checksum = sum;
    out->checked = sum == expected;
  };
  return job;
}

} // namespace

int main(int argc, char** argv) {
  std::size_t tenants = 3;
  std::size_t jobs = 8;
  std::uint32_t gpus = 4;
  std::size_t n = std::size_t(1) << 14;
  bool pumpMode = false;
  std::string tracePath;
  service::ServiceConfig config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A numeric flag takes a whole count; anything else is a usage error.
    auto count = [&](auto& field) {
      const char* text = next();
      const auto parsed =
          common::parseCount<std::remove_reference_t<decltype(field)>>(
              text == nullptr ? "" : text);
      if (parsed) {
        field = *parsed;
      }
      return parsed.has_value();
    };
    const char* v = nullptr;
    bool ok = true;
    if (arg == "--tenants") {
      ok = count(tenants);
    } else if (arg == "--jobs") {
      ok = count(jobs);
    } else if (arg == "--gpus") {
      ok = count(gpus);
    } else if (arg == "--n") {
      ok = count(n);
    } else if (arg == "--policy" && (v = next())) {
      try {
        config.policy = service::policyFromString(v);
      } catch (const common::InvalidArgument& e) {
        std::fprintf(stderr, "skelserve: %s\n", e.what());
        return usage();
      }
    } else if (arg == "--queue-cap") {
      ok = count(config.queueCap);
    } else if (arg == "--batch") {
      ok = count(config.batchLimit);
    } else if (arg == "--trace" && (v = next())) {
      tracePath = v;
    } else if (arg == "--pump") {
      pumpMode = true;
    } else {
      return usage();
    }
    if (!ok) {
      return usage();
    }
  }
  if (tenants == 0 || jobs == 0 || gpus == 0 || n == 0 ||
      config.queueCap == 0 || config.batchLimit == 0) {
    return usage();
  }

  if (std::getenv("SKELCL_CACHE_DIR") == nullptr) {
    ::setenv("SKELCL_CACHE_DIR", "/tmp/skelcl-skelserve-cache", 1);
  }
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
  skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
  if (!tracePath.empty()) {
    trace::Recorder::instance().start();
  }

  bool ok = true;
  try {
    service::JobServer server(config);
    std::vector<service::Session*> sessions;
    for (std::size_t t = 0; t < tenants; ++t) {
      // Demo mix: even tenants carry double fair-share weight, and the
      // last tenant runs at elevated priority.
      const double weight = (t % 2 == 0) ? 2.0 : 1.0;
      const int priority = (t + 1 == tenants) ? 1 : 0;
      sessions.push_back(&server.openSession(
          "tenant-" + std::string(1, char('a' + t % 26)), weight,
          priority));
    }

    std::vector<std::vector<std::shared_ptr<JobResult>>> results(tenants);
    std::uint64_t backpressure = 0;

    if (pumpMode) {
      for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t t = 0; t < tenants; ++t) {
          auto out = std::make_shared<JobResult>();
          results[t].push_back(out);
          sessions[t]->submit(makeJob(t, j, n, gpus, out));
        }
      }
      server.pump();
    } else {
      server.start();
      std::vector<std::thread> clients;
      std::mutex backpressureLock;
      for (std::size_t t = 0; t < tenants; ++t) {
        results[t].resize(jobs);
        clients.emplace_back([&, t] {
          for (std::size_t j = 0; j < jobs; ++j) {
            auto out = std::make_shared<JobResult>();
            results[t][j] = out;
            while (true) {
              try {
                sessions[t]->submit(makeJob(t, j, n, gpus, out));
                break;
              } catch (const service::ServiceOverload&) {
                {
                  std::lock_guard lock(backpressureLock);
                  ++backpressure;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
              }
            }
          }
        });
      }
      for (std::thread& client : clients) {
        client.join();
      }
      server.stop();
    }

    std::printf("skelserve: %zu tenant(s) x %zu job(s), %u GPU(s), "
                "policy %s, queue cap %zu, batch limit %zu%s\n",
                tenants, jobs, gpus, service::policyName(config.policy),
                config.queueCap, config.batchLimit,
                pumpMode ? ", pump mode" : "");
    std::printf("%-12s %6s %4s %5s %6s %8s %14s %12s %12s %11s %11s\n",
                "tenant", "weight", "prio", "jobs", "failed", "rejects",
                "cycles", "bytes", "avg wait ms", "p50 lat ms",
                "p99 lat ms");
    for (const auto& row : server.tenantStats()) {
      std::printf(
          "%-12s %6.1f %4d %5llu %6llu %8llu %14llu %12llu %12.3f "
          "%11.3f %11.3f\n",
          row.tenant.c_str(), row.weight, row.priority,
          (unsigned long long)row.completed,
          (unsigned long long)row.failed,
          (unsigned long long)row.rejected,
          (unsigned long long)row.deviceCycles,
          (unsigned long long)row.bytesMoved,
          row.completed == 0
              ? 0.0
              : double(row.queueWaitNs) / double(row.completed) * 1e-6,
          double(row.latencyP50Ns) * 1e-6, double(row.latencyP99Ns) * 1e-6);
      if (row.failed != 0) {
        ok = false;
      }
    }
    const auto server_stats = server.serverStats();
    std::printf("dispatcher: %llu busy period(s), %llu job(s), max in "
                "flight %llu, %llu overlapped, %llu backpressure retr%s\n",
                (unsigned long long)server_stats.batches,
                (unsigned long long)server_stats.jobsExecuted,
                (unsigned long long)server_stats.maxBatch,
                (unsigned long long)server_stats.coalescedJobs,
                (unsigned long long)backpressure,
                backpressure == 1 ? "y" : "ies");

    for (std::size_t t = 0; t < tenants; ++t) {
      for (std::size_t j = 0; j < results[t].size(); ++j) {
        if (results[t][j] == nullptr || !results[t][j]->checked) {
          std::fprintf(stderr, "FAIL: tenant %zu job %zu checksum\n", t,
                       j);
          ok = false;
        }
      }
    }
  } catch (const common::Error& e) {
    std::fprintf(stderr, "skelserve: %s\n", e.what());
    ok = false;
  }

  if (!tracePath.empty()) {
    try {
      trace::writeTraceFile(tracePath, trace::Recorder::instance().stop());
      std::printf("trace: %s\n", tracePath.c_str());
    } catch (const common::Error& e) {
      std::fprintf(stderr, "cannot write trace: %s\n", e.what());
      ok = false;
    }
  }
  skelcl::terminate();
  return ok ? 0 : 1;
}
