// The job server's in-flight window: jobs of any program overlap on
// different devices, a Scalar-only job dispatches with its own start (at
// its consume() under SKELCL_ASYNC=0), the window never holds more than
// batchLimit jobs, each session's jobs still complete in submission
// order, stop() drains the jobs in flight, and the live per-tenant
// latency quantiles. Run with `ctest -L service`.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "skelcl_test_util.h"

#include "ocl/ocl.h"
#include "service/service.h"
#include "skelcl/detail/scheduler.h"
#include "trace/recorder.h"

namespace {

namespace svc = skelcl::service;
using skelcl::Map;
using skelcl::Reduce;
using skelcl::Scalar;
using skelcl::Vector;
using skelcl::Zip;

constexpr std::size_t kN = 4096;

std::vector<float> seeded(std::size_t n, std::size_t seed) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = float((i * 5 + 7 * seed) % 37) * 0.25f;
  }
  return v;
}

std::vector<int> seededInts(std::size_t n, std::size_t seed) {
  std::vector<int> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = int((i * 3 + seed) % 21) - 10;
  }
  return v;
}

/// Map(Zip) over seeded data on one GPU; the function names (and so the
/// programs) differ per `variant`, as do the keys.
svc::Job chainJob(std::size_t variant, std::size_t seed, std::size_t gpu,
                  const std::shared_ptr<std::vector<float>>& sink) {
  svc::Job job;
  job.programKey = "svw-chain-" + std::to_string(variant);
  auto out = std::make_shared<Vector<float>>();
  job.work = [=](svc::JobContext& ctx) {
    const std::string v = std::to_string(variant);
    Zip<float> mult("float svw_mul" + v +
                    "(float x, float y) { return x * y + " + v + ".0f; }");
    Map<float> scale("float svw_scale" + v +
                     "(float x) { return 0.5f * x + 1.0f; }");
    Vector<float> va(seeded(kN, seed));
    Vector<float> vb(seeded(kN, seed + 1));
    va.setDistribution(skelcl::Distribution::Single, gpu);
    vb.setDistribution(skelcl::Distribution::Single, gpu);
    *out = scale(mult(va, vb));
    ctx.defer(*out);
  };
  job.consume = [=] { *sink = out->hostData(); };
  return job;
}

/// A dot product that registers nothing with JobContext: its only
/// result is the Reduce's Scalar.
svc::Job dotJob(std::size_t seed, std::size_t gpu,
                const std::shared_ptr<int>& sink) {
  svc::Job job;
  job.programKey = "svw-dot";
  auto out = std::make_shared<Scalar<int>>();
  job.work = [=](svc::JobContext&) {
    Zip<int> mult("int svw_imul(int x, int y) { return x * y; }");
    Reduce<int> sum("int svw_iadd(int x, int y) { return x + y; }");
    Vector<int> va(seededInts(kN, seed));
    Vector<int> vb(seededInts(kN, seed + 3));
    va.setDistribution(skelcl::Distribution::Single, gpu);
    vb.setDistribution(skelcl::Distribution::Single, gpu);
    *out = sum(mult(va, vb));
  };
  job.consume = [=] { *sink = out->getValue(); };
  return job;
}

svc::ServiceConfig windowConfig(std::size_t limit) {
  svc::ServiceConfig config;
  config.policy = svc::Policy::Fifo;
  config.batchLimit = limit;
  return config;
}

class ServiceWindowTest : public skelcl_test::SkelclFixture {
protected:
  ServiceWindowTest() : SkelclFixture(/*gpus=*/4) {}
};

TEST_F(ServiceWindowTest, DifferentProgramsOnFourGpusOverlap) {
  // Each job alone: its latency and its output.
  std::uint64_t soloSumNs = 0;
  std::vector<std::vector<float>> solo;
  for (std::size_t g = 0; g < 4; ++g) {
    svc::JobServer server(windowConfig(8));
    auto sink = std::make_shared<std::vector<float>>();
    svc::JobHandle handle =
        server.openSession("solo").submit(chainJob(g, 10 * g, g, sink));
    server.pump();
    handle.rethrow();
    soloSumNs += handle.stats().latencyNs();
    solo.push_back(*sink);
  }

  svc::JobServer server(windowConfig(8));
  std::vector<std::shared_ptr<std::vector<float>>> sinks;
  std::vector<svc::JobHandle> handles;
  const std::uint64_t t0 = ocl::hostTimeNs();
  for (std::size_t g = 0; g < 4; ++g) {
    sinks.push_back(std::make_shared<std::vector<float>>());
    handles.push_back(server.openSession("t" + std::to_string(g))
                          .submit(chainJob(g, 10 * g, g, sinks.back())));
  }
  server.pump();
  const std::uint64_t makespanNs = ocl::hostTimeNs() - t0;

  EXPECT_LT(makespanNs, soloSumNs);
  EXPECT_EQ(server.serverStats().maxBatch, 4u);
  for (std::size_t g = 0; g < 4; ++g) {
    handles[g].rethrow();
    ASSERT_EQ(sinks[g]->size(), solo[g].size());
    EXPECT_EQ(0, std::memcmp(sinks[g]->data(), solo[g].data(),
                             solo[g].size() * sizeof(float)))
        << "job on GPU " << g << " diverged from its solo run";
  }
}

TEST_F(ServiceWindowTest, ScalarOnlyJobOverlapsWithAnotherDevice) {
  int expected = 0;
  {
    const auto a = seededInts(kN, 1);
    const auto b = seededInts(kN, 4);
    for (std::size_t i = 0; i < kN; ++i) {
      expected += a[i] * b[i];
    }
  }
  trace::Recorder::instance().start();
  svc::JobServer server(windowConfig(8));
  auto dot = std::make_shared<int>(0);
  auto chain = std::make_shared<std::vector<float>>();
  svc::JobHandle dotHandle =
      server.openSession("dot").submit(dotJob(1, /*gpu=*/0, dot));
  svc::JobHandle chainHandle = server.openSession("chain").submit(
      chainJob(0, 0, /*gpu=*/1, chain));
  server.pump();
  const trace::Trace trace = trace::Recorder::instance().stop();

  dotHandle.rethrow();
  chainHandle.rethrow();
  EXPECT_EQ(*dot, expected);
  EXPECT_EQ(chain->size(), kN);

  // With the registry on, the dot product's kernels were enqueued when
  // its job started, before the chain job started. With SKELCL_ASYNC=0
  // there is no registry, so the unregistered Scalar evaluates at the
  // dot job's consume(), which runs after the chain job started. Either
  // way they ran while the chain worked on GPU 1.
  const bool async = skelcl::detail::Scheduler::instance().asyncEnabled();
  const std::uint64_t chainStart = chainHandle.stats().dispatchNs;
  std::uint64_t dotKernels = 0, dotBegin = ~0ull, dotEnd = 0;
  std::uint64_t chainBegin = ~0ull, chainEnd = 0;
  for (const trace::CommandRecord& c : trace.commands) {
    if (c.device == 0 && c.kind == trace::CommandKind::Kernel) {
      ++dotKernels;
      if (async) {
        EXPECT_LE(c.queuedNs, chainStart);
      } else {
        EXPECT_GT(c.queuedNs, chainStart);
        EXPECT_LE(c.queuedNs, dotHandle.stats().completeNs);
      }
      dotBegin = std::min(dotBegin, c.startNs);
      dotEnd = std::max(dotEnd, c.endNs);
    } else if (c.device == 1) {
      chainBegin = std::min(chainBegin, c.startNs);
      chainEnd = std::max(chainEnd, c.endNs);
    }
  }
  EXPECT_GT(dotKernels, 0u);
  EXPECT_LT(std::max(dotBegin, chainBegin), std::min(dotEnd, chainEnd));
}

TEST_F(ServiceWindowTest, WindowNeverExceedsBatchLimit) {
  svc::JobServer server(windowConfig(2));
  svc::Session& a = server.openSession("a");
  svc::Session& b = server.openSession("b");
  std::vector<svc::JobHandle> handles;
  for (std::size_t j = 0; j < 3; ++j) {
    handles.push_back(a.submit(chainJob(
        0, j, j % 4, std::make_shared<std::vector<float>>())));
    handles.push_back(b.submit(chainJob(
        1, 20 + j, (j + 2) % 4, std::make_shared<std::vector<float>>())));
  }
  server.pump();
  for (const svc::JobHandle& handle : handles) {
    handle.rethrow();
  }
  const auto stats = server.serverStats();
  EXPECT_EQ(stats.jobsExecuted, 6u);
  EXPECT_EQ(stats.maxBatch, 2u);
  // Six ready jobs keep the window busy from the first start to the
  // last completion: one busy period.
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.coalescedJobs, 6u);
}

TEST_F(ServiceWindowTest, LatencyQuantilesComeFromTheTenantHistogram) {
  svc::ServiceConfig config = windowConfig(4);
  config.policy = svc::Policy::FairShare;
  svc::JobServer server(config);
  std::vector<svc::Session*> sessions = {&server.openSession("p"),
                                         &server.openSession("q")};
  std::vector<std::vector<svc::JobHandle>> handles(2);
  const std::uint64_t t0 = ocl::hostTimeNs();
  for (std::size_t j = 0; j < 12; ++j) {
    svc::Job job =
        chainJob(j % 3, j, j % 4, std::make_shared<std::vector<float>>());
    job.arrivalNs = t0 + j * 4000;
    handles[j % 2].push_back(sessions[j % 2]->submit(std::move(job)));
  }
  server.pump();

  const auto rows = server.tenantStats();
  for (std::size_t t = 0; t < 2; ++t) {
    std::vector<std::uint64_t> latencies;
    for (const svc::JobHandle& handle : handles[t]) {
      handle.rethrow();
      latencies.push_back(handle.stats().latencyNs());
    }
    std::sort(latencies.begin(), latencies.end());
    // Nearest rank of 6 samples: p50 is the 3rd, p99 the 6th (the
    // largest, which the histogram reports exactly).
    EXPECT_EQ(rows[t].latencyP50Ns,
              std::min(latencies.back(),
                       svc::LatencyHistogram::bucketCeil(latencies[2])));
    EXPECT_EQ(rows[t].latencyP99Ns, latencies.back());
    EXPECT_GT(rows[t].latencyP50Ns, 0u);
    EXPECT_LE(rows[t].latencyP50Ns, rows[t].latencyP99Ns);
  }
}

TEST(LatencyHistogramTest, BucketsAreExactBelowSixteenThenAnEighthWide) {
  for (std::uint64_t ns = 0; ns < 16; ++ns) {
    EXPECT_EQ(svc::LatencyHistogram::bucketCeil(ns), ns);
  }
  EXPECT_EQ(svc::LatencyHistogram::bucketCeil(16), 17u);
  EXPECT_EQ(svc::LatencyHistogram::bucketCeil(1000), 1023u);
  EXPECT_EQ(svc::LatencyHistogram::bucketCeil(1024), 1151u);
  EXPECT_EQ(svc::LatencyHistogram::bucketCeil(~0ull), ~0ull);

  svc::LatencyHistogram histogram;
  EXPECT_EQ(histogram.quantile(0.5), 0u);
  for (std::uint64_t ns = 1; ns <= 100; ++ns) {
    histogram.record(ns * 1000);
  }
  EXPECT_EQ(histogram.count(), 100u);
  // The 50th sample, 50 000, lies in the bucket [49 152, 53 247].
  EXPECT_EQ(histogram.quantile(0.50), 53247u);
  EXPECT_EQ(histogram.quantile(0.99), 100000u); // capped at the maximum
}

// --- threaded dispatcher (tsan-smoke) -----------------------------------

TEST_F(ServiceWindowTest, ThreadedSessionsCompleteInSubmissionOrder) {
  svc::ServiceConfig config = windowConfig(3);
  config.policy = svc::Policy::FairShare;
  config.queueCap = 2; // small: clients retry under backpressure
  svc::JobServer server(config);
  const std::size_t tenants = 3, jobsPer = 5;
  std::vector<svc::Session*> sessions;
  for (std::size_t t = 0; t < tenants; ++t) {
    sessions.push_back(&server.openSession("order-" + std::to_string(t)));
  }
  // consume() runs on the dispatcher only, in completion order.
  auto completions = std::make_shared<std::vector<std::size_t>>();
  server.start();

  std::vector<std::vector<svc::JobHandle>> handles(tenants);
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < tenants; ++t) {
    handles[t].resize(jobsPer);
    clients.emplace_back([&, t] {
      for (std::size_t j = 0; j < jobsPer; ++j) {
        svc::Job job = chainJob(t, t * 10 + j, (t + j) % 4,
                                std::make_shared<std::vector<float>>());
        job.consume = [completions, t, j] {
          completions->push_back(t * 100 + j);
        };
        while (true) {
          try {
            handles[t][j] = sessions[t]->submit(job);
            break;
          } catch (const svc::ServiceOverload&) {
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  server.stop();

  ASSERT_EQ(completions->size(), tenants * jobsPer);
  std::vector<std::size_t> next(tenants, 0);
  for (const std::size_t id : *completions) {
    const std::size_t t = id / 100;
    EXPECT_EQ(id % 100, next[t]) << "tenant " << t;
    next[t] = id % 100 + 1;
  }
  for (std::size_t t = 0; t < tenants; ++t) {
    for (std::size_t j = 1; j < jobsPer; ++j) {
      EXPECT_LE(handles[t][j - 1].stats().completeNs,
                handles[t][j].stats().completeNs);
    }
  }
}

TEST_F(ServiceWindowTest, ThreadedStopCompletesJobsInFlight) {
  svc::JobServer server(windowConfig(8));
  svc::Session& session = server.openSession("stop");
  std::atomic<bool> firstStarted{false};
  std::atomic<bool> stopping{false};
  std::vector<std::shared_ptr<std::vector<float>>> sinks;
  std::vector<svc::JobHandle> handles;
  for (std::size_t j = 0; j < 5; ++j) {
    sinks.push_back(std::make_shared<std::vector<float>>());
    svc::Job job = chainJob(j % 2, j, j % 4, sinks.back());
    if (j == 0) {
      // Holds the dispatcher inside the first job until stop() is on
      // its way, so stop() finds every job queued or in flight.
      auto work = job.work;
      job.work = [&, work](svc::JobContext& ctx) {
        firstStarted = true;
        while (!stopping.load()) {
          std::this_thread::yield();
        }
        work(ctx);
      };
    }
    handles.push_back(session.submit(std::move(job)));
  }
  server.start();
  while (!firstStarted.load()) {
    std::this_thread::yield();
  }
  stopping = true;
  server.stop();

  for (std::size_t j = 0; j < handles.size(); ++j) {
    EXPECT_TRUE(handles[j].done()) << j;
    EXPECT_FALSE(handles[j].failed()) << j;
    EXPECT_EQ(sinks[j]->size(), kN) << j;
  }
  EXPECT_EQ(server.serverStats().jobsExecuted, handles.size());
  EXPECT_GE(server.serverStats().maxBatch, 2u);
}

} // namespace
