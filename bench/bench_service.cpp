// Multi-tenant job service: saturation, fair-share, cross-tenant
// batching, and fault isolation — the service-level counterparts of the
// paper's single-program benchmarks, measured in virtual time on the
// simulated four-GPU Tesla S1070 (two GPUs for the fault scenario).
//
// Four properties are asserted (the binary exits non-zero otherwise):
//
//  1. Saturation curve. Four tenants offer map/zip jobs at load factors
//     {0.25, 0.5, 1, 2, 4} of the measured service capacity, with
//     Job::arrivalNs spacing the arrivals on the virtual clock (pump
//     mode idles the host between arrivals, so the open-loop arrival
//     process is exact). Throughput must scale in the subcritical
//     region and flatten past the knee, and p99 latency must blow up
//     under overload — the textbook saturation shape.
//
//  2. Fair share. A heavy tenant floods the server before a light
//     tenant submits a handful of jobs. Under FIFO the light tenant
//     drains behind the whole backlog; weighted fair-share (least
//     accumulated device-cycles / weight first) must cut the light
//     tenant's average latency by >= 2x. A second cycle checks 2:1
//     weights converge to a 2:1 device-cycle split while both tenants
//     stay backlogged.
//
//  3. Cross-tenant batching. The same 4-tenant workload runs once
//     through a shared server (up to 8 jobs in flight) and once as
//     per-tenant isolated cycles (program memo cleared per tenant,
//     batching off — the "every tenant links its own SkelCL"
//     baseline). The shared server
//     must win >= 1.3x in virtual makespan and resolve the program
//     fewer times (kernel-cache hits: one shared load vs one per
//     tenant).
//
//  4. Fault isolation. Tenants alpha (Map jobs, GPU 0) and beta (Zip
//     jobs, GPU 1) share a server while SKELCL_FAULT_PLAN kills beta's
//     device on its second kernel launch. Beta's affected jobs must
//     fail with typed ocl::DeviceLost on their own JobHandles only;
//     alpha's outputs must be byte-identical to its solo run.
//
// Output: human-readable tables plus one `BENCH {...}` JSON line per
// measurement. `--smoke` shrinks sizes; ctest runs it under
// `perf-smoke` (and `service`).
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

#include "ocl/fault.h"
#include "service/service.h"

namespace {

namespace svc = skelcl::service;

struct JobSink {
  std::vector<float> data;
};

/// Map(Zip) chain over fresh seeded data, pinned to one GPU — the
/// standard tenant job of the saturation and batching scenarios.
svc::Job chainJob(const std::string& key, std::size_t seed, std::size_t n,
                  std::size_t gpu, const std::shared_ptr<JobSink>& sink,
                  std::uint64_t arrivalNs = 0) {
  svc::Job job;
  job.programKey = key;
  job.arrivalNs = arrivalNs;
  auto out = std::make_shared<skelcl::Vector<float>>();
  job.work = [=](svc::JobContext& ctx) {
    skelcl::Zip<float> mult(
        "float svb_mul(float x, float y) { return x * y; }");
    skelcl::Map<float> scale(
        "float svb_scale(float x) { return 0.5f * x + 1.0f; }");
    std::vector<float> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = float((i + 3 * seed) % 31) * 0.25f;
      b[i] = float((i * 7 + seed) % 29) * 0.5f;
    }
    skelcl::Vector<float> va(std::move(a));
    skelcl::Vector<float> vb(std::move(b));
    va.setDistribution(skelcl::Distribution::Single, gpu);
    vb.setDistribution(skelcl::Distribution::Single, gpu);
    *out = scale(mult(va, vb));
    ctx.defer(*out);
  };
  job.consume = [=] { sink->data = out->hostData(); };
  return job;
}

/// Single-Map job ("skelcl_map" launches) — tenant alpha of the fault
/// scenario.
svc::Job mapJob(std::size_t seed, std::size_t n, std::size_t gpu,
                const std::shared_ptr<JobSink>& sink) {
  svc::Job job;
  job.programKey = "svc-map";
  auto out = std::make_shared<skelcl::Vector<float>>();
  job.work = [=](svc::JobContext& ctx) {
    skelcl::Map<float> twist(
        "float svb_twist(float x) { return 2.0f * x + 1.0f; }");
    std::vector<float> a(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = float((i + 11 * seed) % 37) * 0.125f;
    }
    skelcl::Vector<float> va(std::move(a));
    va.setDistribution(skelcl::Distribution::Single, gpu);
    *out = twist(va);
    ctx.defer(*out);
  };
  job.consume = [=] { sink->data = out->hostData(); };
  return job;
}

/// Single-Zip job ("skelcl_zip" launches) — tenant beta of the fault
/// scenario; the fault plan's `~skelcl_zip` pattern targets only these.
svc::Job zipJob(std::size_t seed, std::size_t n, std::size_t gpu,
                const std::shared_ptr<JobSink>& sink) {
  svc::Job job;
  job.programKey = "svc-zip";
  auto out = std::make_shared<skelcl::Vector<float>>();
  job.work = [=](svc::JobContext& ctx) {
    skelcl::Zip<float> pair(
        "float svb_pair(float x, float y) { return x + y; }");
    std::vector<float> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = float((i + 5 * seed) % 23) * 0.5f;
      b[i] = float((i * 3 + seed) % 19) * 0.25f;
    }
    skelcl::Vector<float> va(std::move(a));
    skelcl::Vector<float> vb(std::move(b));
    va.setDistribution(skelcl::Distribution::Single, gpu);
    vb.setDistribution(skelcl::Distribution::Single, gpu);
    *out = pair(va, vb);
    ctx.defer(*out);
  };
  job.consume = [=] { sink->data = out->hostData(); };
  return job;
}

double percentile(std::vector<std::uint64_t> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t rank = std::min(
      values.size() - 1,
      std::size_t(q * double(values.size())));
  return double(values[rank]);
}

// --- 1. Saturation ---------------------------------------------------------

struct SatPoint {
  double load = 0;          // offered load / measured capacity
  double throughput = 0;    // completed jobs per virtual second
  double p50Ms = 0;
  double p99Ms = 0;
};

/// One open-loop run: `tenants` tenants jointly offer jobs with
/// aggregate interarrival serviceNs/load (load 0 = all arrive at once,
/// the capacity calibration).
SatPoint runSaturation(double load, std::uint64_t serviceNs,
                       std::size_t tenants, std::size_t jobsPerTenant,
                       std::size_t n, std::uint64_t* makespanNs) {
  bench::setupSystem(4);
  SatPoint out;
  out.load = load;
  {
    svc::ServiceConfig config;
    config.policy = svc::Policy::Fifo;
    config.batching = true;
    config.batchLimit = 8;
    config.queueCap = jobsPerTenant;
    svc::JobServer server(config);
    std::vector<svc::Session*> sessions;
    for (std::size_t t = 0; t < tenants; ++t) {
      sessions.push_back(
          &server.openSession("sat-" + std::to_string(t)));
    }

    const std::uint64_t t0 = ocl::hostTimeNs();
    const std::uint64_t interNs =
        load > 0 ? std::uint64_t(double(serviceNs) / load) : 0;
    std::vector<svc::JobHandle> handles;
    std::vector<std::shared_ptr<JobSink>> sinks;
    for (std::size_t j = 0; j < jobsPerTenant; ++j) {
      for (std::size_t t = 0; t < tenants; ++t) {
        const std::size_t k = j * tenants + t;
        auto sink = std::make_shared<JobSink>();
        sinks.push_back(sink);
        handles.push_back(sessions[t]->submit(
            chainJob("svc-sat", k, n, k % 4, sink, t0 + k * interNs)));
      }
    }
    server.pump();

    *makespanNs = ocl::hostTimeNs() - t0;
    std::vector<std::uint64_t> latencies;
    for (const svc::JobHandle& handle : handles) {
      handle.rethrow();
      latencies.push_back(handle.stats().latencyNs());
    }
    for (const auto& sink : sinks) {
      if (sink->data.size() != n) {
        throw common::Error("saturation job lost its output");
      }
    }
    out.throughput =
        double(handles.size()) / (double(*makespanNs) * 1e-9);
    out.p50Ms = percentile(latencies, 0.50) * 1e-6;
    out.p99Ms = percentile(latencies, 0.99) * 1e-6;
  }
  skelcl::terminate();
  return out;
}

bool benchSaturation(bool smoke) {
  const std::size_t tenants = 4;
  const std::size_t jobsPerTenant = smoke ? 4 : 10;
  const std::size_t n = smoke ? (std::size_t(1) << 12)
                              : (std::size_t(1) << 13);

  bench::subheading("saturation curve (open-loop arrivals, pump mode)");
  // Capacity calibration: every job available at once.
  std::uint64_t makespanNs = 0;
  runSaturation(0, 1, tenants, jobsPerTenant, n, &makespanNs);
  const std::uint64_t serviceNs =
      makespanNs / (tenants * jobsPerTenant);
  std::printf("capacity: %.3f ms per job (batched, 4 GPUs)\n",
              double(serviceNs) * 1e-6);

  const double loads[] = {0.25, 0.5, 1.0, 2.0, 4.0};
  std::vector<SatPoint> curve;
  std::printf("%8s %16s %12s %12s\n", "load", "jobs/s (virt)", "p50 ms",
              "p99 ms");
  for (const double load : loads) {
    curve.push_back(runSaturation(load, serviceNs, tenants,
                                  jobsPerTenant, n, &makespanNs));
    const SatPoint& p = curve.back();
    std::printf("%8.2f %16.1f %12.3f %12.3f\n", p.load, p.throughput,
                p.p50Ms, p.p99Ms);
    bench::BenchJson("service_saturation")
        .field("load", p.load)
        .field("tenants", std::uint64_t(tenants))
        .field("jobs", std::uint64_t(tenants * jobsPerTenant))
        .field("throughput_jobs_per_s", p.throughput)
        .field("p50_ms", p.p50Ms)
        .field("p99_ms", p.p99Ms)
        .print();
  }

  const double growth = curve[1].throughput / curve[0].throughput;
  const double flattening = curve[4].throughput / curve[3].throughput;
  const double blowup = curve[4].p99Ms / curve[0].p99Ms;
  const bool ok = growth >= 1.4 && flattening <= 1.3 && blowup >= 2.0;
  std::printf("subcritical growth %.2fx (>= 1.4), saturated growth "
              "%.2fx (<= 1.3), p99 blow-up %.1fx (>= 2)  %s\n",
              growth, flattening, blowup, ok ? "ok" : "VIOLATION");
  return ok;
}

// --- 2. Fair share ---------------------------------------------------------

struct HeavyLight {
  double lightAvgMs = 0;
  double heavyAvgMs = 0;
};

HeavyLight runHeavyLight(svc::Policy policy, std::size_t heavyJobs,
                         std::size_t lightJobs, std::size_t n) {
  bench::setupSystem(4);
  HeavyLight out;
  {
    svc::ServiceConfig config;
    config.policy = policy;
    config.batching = false; // job-granularity scheduling under test
    config.queueCap = heavyJobs + lightJobs;
    svc::JobServer server(config);
    svc::Session& heavy = server.openSession("heavy");
    svc::Session& light = server.openSession("light");

    std::vector<svc::JobHandle> heavyHandles, lightHandles;
    std::vector<std::shared_ptr<JobSink>> sinks;
    for (std::size_t j = 0; j < heavyJobs; ++j) {
      auto sink = std::make_shared<JobSink>();
      sinks.push_back(sink);
      heavyHandles.push_back(
          heavy.submit(chainJob("svc-heavy", j, n, j % 4, sink)));
    }
    for (std::size_t j = 0; j < lightJobs; ++j) {
      auto sink = std::make_shared<JobSink>();
      sinks.push_back(sink);
      lightHandles.push_back(
          light.submit(chainJob("svc-light", 100 + j, n, j % 4, sink)));
    }
    server.pump();

    std::uint64_t lightNs = 0, heavyNs = 0;
    for (const auto& handle : lightHandles) {
      handle.rethrow();
      lightNs += handle.stats().latencyNs();
    }
    for (const auto& handle : heavyHandles) {
      handle.rethrow();
      heavyNs += handle.stats().latencyNs();
    }
    out.lightAvgMs = double(lightNs) / double(lightJobs) * 1e-6;
    out.heavyAvgMs = double(heavyNs) / double(heavyJobs) * 1e-6;
  }
  skelcl::terminate();
  return out;
}

/// 2:1 weights, both tenants backlogged with equal jobs: counts how many
/// of the first half of dispatches went to the weight-2 tenant.
std::size_t runWeightedSplit(std::size_t jobsEach, std::size_t n) {
  bench::setupSystem(4);
  std::size_t firstHalfA = 0;
  {
    svc::ServiceConfig config;
    config.policy = svc::Policy::FairShare;
    config.batching = false;
    config.queueCap = jobsEach;
    svc::JobServer server(config);
    svc::Session& a = server.openSession("w2", /*weight=*/2.0);
    svc::Session& b = server.openSession("w1", /*weight=*/1.0);

    std::vector<std::pair<svc::JobHandle, bool>> handles; // (handle, isA)
    std::vector<std::shared_ptr<JobSink>> sinks;
    for (std::size_t j = 0; j < jobsEach; ++j) {
      auto sink = std::make_shared<JobSink>();
      sinks.push_back(sink);
      handles.emplace_back(
          a.submit(chainJob("svc-w", j, n, 0, sink)), true);
    }
    for (std::size_t j = 0; j < jobsEach; ++j) {
      auto sink = std::make_shared<JobSink>();
      sinks.push_back(sink);
      handles.emplace_back(
          b.submit(chainJob("svc-w", 50 + j, n, 0, sink)), false);
    }
    server.pump();

    std::vector<std::pair<std::uint64_t, bool>> order;
    for (const auto& [handle, isA] : handles) {
      handle.rethrow();
      order.emplace_back(handle.stats().dispatchNs, isA);
    }
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < jobsEach; ++i) {
      firstHalfA += order[i].second ? 1 : 0;
    }
  }
  skelcl::terminate();
  return firstHalfA;
}

bool benchFairShare(bool smoke) {
  const std::size_t heavyJobs = smoke ? 12 : 24;
  const std::size_t lightJobs = smoke ? 3 : 4;
  const std::size_t n = smoke ? (std::size_t(1) << 12)
                              : (std::size_t(1) << 13);

  bench::subheading("fair share: heavy flood vs light tenant");
  const HeavyLight fifo =
      runHeavyLight(svc::Policy::Fifo, heavyJobs, lightJobs, n);
  const HeavyLight fair =
      runHeavyLight(svc::Policy::FairShare, heavyJobs, lightJobs, n);
  const double ratio = fifo.lightAvgMs / fair.lightAvgMs;
  std::printf("light tenant avg latency: fifo %.3f ms, fair %.3f ms "
              "(%.1fx better), heavy under fair %.3f ms\n",
              fifo.lightAvgMs, fair.lightAvgMs, ratio, fair.heavyAvgMs);

  const std::size_t jobsEach = smoke ? 9 : 12;
  const std::size_t firstHalfA = runWeightedSplit(jobsEach, n);
  // While both stay backlogged, a 2.0-weight tenant should take ~2/3 of
  // dispatches: 2/3 * jobsEach of the first jobsEach slots.
  const double share = double(firstHalfA) / double(jobsEach);
  std::printf("2:1 weights: weight-2 tenant took %zu of the first %zu "
              "dispatches (%.0f%%)\n",
              firstHalfA, jobsEach, share * 100.0);

  const bool ok = ratio >= 2.0 && share >= 0.55 && share <= 0.8;
  bench::BenchJson("service_fair_share")
      .field("heavy_jobs", std::uint64_t(heavyJobs))
      .field("light_jobs", std::uint64_t(lightJobs))
      .field("light_fifo_ms", fifo.lightAvgMs)
      .field("light_fair_ms", fair.lightAvgMs)
      .field("light_latency_ratio", ratio)
      .field("weighted_first_half_share", share)
      .field("ok", ok)
      .print();
  if (!ok) {
    std::printf("fair-share VIOLATION\n");
  }
  return ok;
}

// --- 3. Cross-tenant batching ---------------------------------------------

struct BatchRun {
  std::uint64_t makespanNs = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t coalescedJobs = 0;
  std::uint64_t maxBatch = 0;
};

BatchRun runShared(std::size_t tenants, std::size_t jobsPerTenant,
                   std::size_t n) {
  bench::setupSystem(4);
  skelcl::detail::Runtime::instance().clearPrograms();
  BatchRun out;
  skelcl::detail::StatsScope stats;
  {
    svc::ServiceConfig config;
    config.policy = svc::Policy::Fifo;
    config.batching = true;
    config.batchLimit = 8;
    config.queueCap = jobsPerTenant;
    svc::JobServer server(config);
    std::vector<svc::Session*> sessions;
    for (std::size_t t = 0; t < tenants; ++t) {
      sessions.push_back(
          &server.openSession("batch-" + std::to_string(t)));
    }
    std::vector<std::shared_ptr<JobSink>> sinks;
    std::vector<svc::JobHandle> handles;
    const std::uint64_t t0 = ocl::hostTimeNs();
    for (std::size_t t = 0; t < tenants; ++t) {
      for (std::size_t j = 0; j < jobsPerTenant; ++j) {
        const std::size_t k = t * jobsPerTenant + j;
        auto sink = std::make_shared<JobSink>();
        sinks.push_back(sink);
        handles.push_back(
            sessions[t]->submit(chainJob("svc-batch", k, n, k % 4, sink)));
      }
    }
    server.pump();
    out.makespanNs = ocl::hostTimeNs() - t0;
    for (const auto& handle : handles) {
      handle.rethrow();
    }
    const auto serverStats = server.serverStats();
    out.coalescedJobs = serverStats.coalescedJobs;
    out.maxBatch = serverStats.maxBatch;
  }
  const auto cache = stats.cacheDelta();
  out.cacheHits = cache.hits;
  out.cacheMisses = cache.misses;
  skelcl::terminate();
  return out;
}

/// The isolation baseline: each tenant gets its own init cycle with a
/// cleared program memo (its "own process"; the disk cache stays warm),
/// no batching, jobs back to back. Makespans add up.
BatchRun runIsolated(std::size_t tenants, std::size_t jobsPerTenant,
                     std::size_t n) {
  BatchRun out;
  for (std::size_t t = 0; t < tenants; ++t) {
    bench::setupSystem(4);
    skelcl::detail::Runtime::instance().clearPrograms();
    skelcl::detail::StatsScope stats;
    {
      svc::ServiceConfig config;
      config.policy = svc::Policy::Fifo;
      config.batching = false;
      config.queueCap = jobsPerTenant;
      svc::JobServer server(config);
      svc::Session& session =
          server.openSession("iso-" + std::to_string(t));
      std::vector<std::shared_ptr<JobSink>> sinks;
      std::vector<svc::JobHandle> handles;
      const std::uint64_t t0 = ocl::hostTimeNs();
      for (std::size_t j = 0; j < jobsPerTenant; ++j) {
        const std::size_t k = t * jobsPerTenant + j;
        auto sink = std::make_shared<JobSink>();
        sinks.push_back(sink);
        handles.push_back(
            session.submit(chainJob("svc-batch", k, n, k % 4, sink)));
      }
      server.pump();
      out.makespanNs += ocl::hostTimeNs() - t0;
      for (const auto& handle : handles) {
        handle.rethrow();
      }
    }
    const auto cache = stats.cacheDelta();
    out.cacheHits += cache.hits;
    out.cacheMisses += cache.misses;
    skelcl::terminate();
  }
  return out;
}

bool benchBatching(bool smoke) {
  const std::size_t tenants = 4;
  const std::size_t jobsPerTenant = smoke ? 4 : 6;
  const std::size_t n = smoke ? (std::size_t(1) << 12)
                              : (std::size_t(1) << 13);

  bench::subheading("cross-tenant batching vs per-tenant isolation");
  // Warm the on-disk kernel cache so both modes measure resolution, not
  // first-ever compilation.
  runShared(tenants, 1, n);

  const BatchRun shared = runShared(tenants, jobsPerTenant, n);
  const BatchRun isolated = runIsolated(tenants, jobsPerTenant, n);
  const double speedup =
      double(isolated.makespanNs) / double(shared.makespanNs);
  std::printf("shared   %10.3f ms, %llu cache hits + %llu misses, "
              "max in flight %llu, %llu overlapped\n",
              double(shared.makespanNs) * 1e-6,
              (unsigned long long)shared.cacheHits,
              (unsigned long long)shared.cacheMisses,
              (unsigned long long)shared.maxBatch,
              (unsigned long long)shared.coalescedJobs);
  std::printf("isolated %10.3f ms, %llu cache hits + %llu misses\n",
              double(isolated.makespanNs) * 1e-6,
              (unsigned long long)isolated.cacheHits,
              (unsigned long long)isolated.cacheMisses);

  const std::uint64_t sharedLoads = shared.cacheHits + shared.cacheMisses;
  const std::uint64_t isolatedLoads =
      isolated.cacheHits + isolated.cacheMisses;
  const bool ok = speedup >= 1.3 && shared.maxBatch >= 2 &&
                  isolatedLoads > sharedLoads;
  std::printf("amortization %.2fx (>= 1.3), program resolutions %llu vs "
              "%llu  %s\n",
              speedup, (unsigned long long)sharedLoads,
              (unsigned long long)isolatedLoads,
              ok ? "ok" : "VIOLATION");
  bench::BenchJson("service_batching")
      .field("tenants", std::uint64_t(tenants))
      .field("jobs_per_tenant", std::uint64_t(jobsPerTenant))
      .field("shared_ms", double(shared.makespanNs) * 1e-6)
      .field("isolated_ms", double(isolated.makespanNs) * 1e-6)
      .field("speedup", speedup)
      .field("shared_program_loads", sharedLoads)
      .field("isolated_program_loads", isolatedLoads)
      .field("max_batch", shared.maxBatch)
      .field("coalesced_jobs", shared.coalescedJobs)
      .field("ok", ok)
      .print();
  return ok;
}

// --- 4. Fault isolation ----------------------------------------------------

/// Tenant alpha alone on the same two-GPU system — the reference outputs
/// the shared faulted run must reproduce byte-identically.
std::vector<std::vector<float>> runAlphaSolo(std::size_t jobs,
                                             std::size_t n) {
  bench::setupSystem(2);
  std::vector<std::vector<float>> outputs;
  {
    svc::ServiceConfig config;
    config.policy = svc::Policy::Fifo;
    config.batching = false;
    config.queueCap = jobs;
    svc::JobServer server(config);
    svc::Session& alpha = server.openSession("alpha");
    std::vector<std::shared_ptr<JobSink>> sinks;
    std::vector<svc::JobHandle> handles;
    for (std::size_t j = 0; j < jobs; ++j) {
      auto sink = std::make_shared<JobSink>();
      sinks.push_back(sink);
      handles.push_back(alpha.submit(mapJob(j, n, /*gpu=*/0, sink)));
    }
    server.pump();
    for (const auto& handle : handles) {
      handle.rethrow();
    }
    for (const auto& sink : sinks) {
      outputs.push_back(sink->data);
    }
  }
  skelcl::terminate();
  return outputs;
}

bool benchFaultIsolation(bool smoke) {
  const std::size_t jobs = smoke ? 4 : 6;
  const std::size_t n = smoke ? (std::size_t(1) << 12)
                              : (std::size_t(1) << 13);

  bench::subheading("tenant fault isolation (injected device loss)");
  const auto solo = runAlphaSolo(jobs, n);

  // Beta's second Zip launch kills its device (GPU 1); alpha's Map jobs
  // run on GPU 0 and must not notice.
  ::setenv("SKELCL_FAULT_PLAN", "kernel~skelcl_zip@2=lost", 1);
  bench::setupSystem(2);
  ::unsetenv("SKELCL_FAULT_PLAN");

  bool alphaIdentical = true;
  std::size_t betaFailed = 0;
  bool betaTyped = true;
  {
    svc::ServiceConfig config;
    config.policy = svc::Policy::Fifo;
    config.batching = false;
    config.queueCap = jobs;
    svc::JobServer server(config);
    svc::Session& alpha = server.openSession("alpha");
    svc::Session& beta = server.openSession("beta");

    std::vector<std::shared_ptr<JobSink>> alphaSinks;
    std::vector<svc::JobHandle> alphaHandles, betaHandles;
    for (std::size_t j = 0; j < jobs; ++j) {
      auto sinkA = std::make_shared<JobSink>();
      alphaSinks.push_back(sinkA);
      alphaHandles.push_back(alpha.submit(mapJob(j, n, /*gpu=*/0, sinkA)));
      auto sinkB = std::make_shared<JobSink>();
      betaHandles.push_back(beta.submit(zipJob(j, n, /*gpu=*/1, sinkB)));
    }
    server.pump();

    for (std::size_t j = 0; j < jobs; ++j) {
      alphaHandles[j].rethrow();
      if (alphaSinks[j]->data.size() != solo[j].size() ||
          std::memcmp(alphaSinks[j]->data.data(), solo[j].data(),
                      solo[j].size() * sizeof(float)) != 0) {
        alphaIdentical = false;
      }
      if (betaHandles[j].failed()) {
        ++betaFailed;
        try {
          betaHandles[j].rethrow();
        } catch (const ocl::DeviceLost&) {
          // the expected typed error
        } catch (...) {
          betaTyped = false;
        }
      }
    }
  }
  ocl::FaultInjector::instance().reset();
  skelcl::terminate();

  // Beta's first job precedes the fault; every later one hits the lost
  // device.
  const bool ok = alphaIdentical && betaTyped && betaFailed == jobs - 1;
  std::printf("alpha outputs %s, beta %zu/%zu jobs failed (typed "
              "DeviceLost: %s)  %s\n",
              alphaIdentical ? "byte-identical to solo" : "DIVERGED",
              betaFailed, jobs, betaTyped ? "yes" : "NO",
              ok ? "ok" : "VIOLATION");
  bench::BenchJson("service_fault_isolation")
      .field("jobs_per_tenant", std::uint64_t(jobs))
      .field("alpha_identical", alphaIdentical)
      .field("beta_failed", std::uint64_t(betaFailed))
      .field("beta_typed_device_lost", betaTyped)
      .field("ok", ok)
      .print();
  return ok;
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  bench::setupCacheDir("service");
  bench::traceSpec();

  bench::heading("Multi-tenant job service (virtual time)");
  bool ok = true;
  try {
    ok = benchSaturation(smoke) && ok;
    ok = benchFairShare(smoke) && ok;
    ok = benchBatching(smoke) && ok;
    ok = benchFaultIsolation(smoke) && ok;
  } catch (const common::Error& e) {
    std::fprintf(stderr, "bench_service: %s\n", e.what());
    ok = false;
  }

  if (!ok) {
    std::fprintf(stderr, "\nservice bench violation: saturation shape, "
                         "fair-share bound, batching amortization, or "
                         "fault isolation failed\n");
    return 1;
  }
  return 0;
}
