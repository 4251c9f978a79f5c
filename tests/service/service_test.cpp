// The multi-tenant job service: policy behavior (FIFO baseline
// equivalence, weighted fair share, job-granularity priority), admission
// control, cross-tenant batching, per-tenant accounting, the runtime
// stats scopes, the scheduler's cross-thread submission contract, and
// the skeltrace tenant report. Fault-plan isolation lives in
// service_fault_test.cpp. Run with `ctest -L service`.
#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "skelcl_test_util.h"

#include "ocl/ocl.h"
#include "service/service.h"
#include "skelcl/detail/scheduler.h"
#include "trace/analysis.h"
#include "trace/recorder.h"

namespace {

namespace svc = skelcl::service;
using skelcl::Map;
using skelcl::Vector;
using skelcl::Zip;

struct JobSink {
  std::vector<float> data;
};

std::vector<float> seededA(std::size_t n, std::size_t seed) {
  std::vector<float> a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = float((i + 3 * seed) % 31) * 0.25f;
  }
  return a;
}

std::vector<float> seededB(std::size_t n, std::size_t seed) {
  std::vector<float> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = float((i * 7 + seed) % 29) * 0.5f;
  }
  return b;
}

/// The standard tenant job: Map(Zip) over seeded data on one GPU.
svc::Job chainJob(std::size_t seed, std::size_t n, std::size_t gpu,
                  const std::shared_ptr<JobSink>& sink,
                  std::uint64_t arrivalNs = 0,
                  const std::string& key = "svt-chain") {
  svc::Job job;
  job.programKey = key;
  job.arrivalNs = arrivalNs;
  auto out = std::make_shared<Vector<float>>();
  job.work = [=](svc::JobContext& ctx) {
    Zip<float> mult("float svt_mul(float x, float y) { return x * y; }");
    Map<float> scale(
        "float svt_scale(float x) { return 0.5f * x + 1.0f; }");
    Vector<float> va(seededA(n, seed));
    Vector<float> vb(seededB(n, seed));
    va.setDistribution(skelcl::Distribution::Single, gpu);
    vb.setDistribution(skelcl::Distribution::Single, gpu);
    *out = scale(mult(va, vb));
    ctx.defer(*out);
  };
  job.consume = [=] { sink->data = out->hostData(); };
  return job;
}

/// What chainJob computes, evaluated directly without the service.
std::vector<float> directChain(std::size_t seed, std::size_t n,
                               std::size_t gpu) {
  Zip<float> mult("float svt_mul(float x, float y) { return x * y; }");
  Map<float> scale("float svt_scale(float x) { return 0.5f * x + 1.0f; }");
  Vector<float> va(seededA(n, seed));
  Vector<float> vb(seededB(n, seed));
  va.setDistribution(skelcl::Distribution::Single, gpu);
  vb.setDistribution(skelcl::Distribution::Single, gpu);
  return scale(mult(va, vb)).hostData();
}

class ServiceTest : public skelcl_test::SkelclFixture {
protected:
  ServiceTest() : SkelclFixture(/*gpus=*/2) {}
};

constexpr std::size_t kN = 4096;

// --- FIFO baseline equivalence -------------------------------------------

TEST_F(ServiceTest, FifoSingleTenantMatchesDirectExecutionByteIdentically) {
  std::vector<std::vector<float>> direct;
  for (std::size_t j = 0; j < 3; ++j) {
    direct.push_back(directChain(j, kN, j % 2));
  }

  svc::ServiceConfig config;
  config.policy = svc::Policy::Fifo;
  svc::JobServer server(config);
  svc::Session& only = server.openSession("only");
  std::vector<std::shared_ptr<JobSink>> sinks;
  for (std::size_t j = 0; j < 3; ++j) {
    auto sink = std::make_shared<JobSink>();
    sinks.push_back(sink);
    only.submit(chainJob(j, kN, j % 2, sink));
  }
  server.pump();

  for (std::size_t j = 0; j < 3; ++j) {
    ASSERT_EQ(sinks[j]->data.size(), direct[j].size());
    EXPECT_EQ(0, std::memcmp(sinks[j]->data.data(), direct[j].data(),
                             direct[j].size() * sizeof(float)));
  }
}

TEST_F(ServiceTest, SharedFifoTenantsKeepTheirSoloOutputs) {
  // Two tenants interleaved through one FIFO server must each see
  // exactly the bytes their jobs produce when run directly.
  svc::ServiceConfig config;
  config.policy = svc::Policy::Fifo;
  svc::JobServer server(config);
  svc::Session& left = server.openSession("left");
  svc::Session& right = server.openSession("right");
  std::vector<std::shared_ptr<JobSink>> leftSinks, rightSinks;
  for (std::size_t j = 0; j < 3; ++j) {
    auto sinkL = std::make_shared<JobSink>();
    leftSinks.push_back(sinkL);
    left.submit(chainJob(j, kN, 0, sinkL));
    auto sinkR = std::make_shared<JobSink>();
    rightSinks.push_back(sinkR);
    right.submit(chainJob(10 + j, kN, 1, sinkR));
  }
  server.pump();

  for (std::size_t j = 0; j < 3; ++j) {
    const auto expectedL = directChain(j, kN, 0);
    const auto expectedR = directChain(10 + j, kN, 1);
    EXPECT_EQ(0, std::memcmp(leftSinks[j]->data.data(), expectedL.data(),
                             expectedL.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(rightSinks[j]->data.data(), expectedR.data(),
                             expectedR.size() * sizeof(float)));
  }
}

// --- admission control ----------------------------------------------------

TEST_F(ServiceTest, OverloadRejectionIsTypedAndCounted) {
  svc::ServiceConfig config;
  config.queueCap = 2;
  svc::JobServer server(config);
  svc::Session& tenant = server.openSession("crowded");
  auto sink = std::make_shared<JobSink>();
  tenant.submit(chainJob(0, kN, 0, sink));
  tenant.submit(chainJob(1, kN, 0, sink));
  try {
    tenant.submit(chainJob(2, kN, 0, sink));
    FAIL() << "third submit should overload a cap-2 queue";
  } catch (const svc::ServiceOverload& e) {
    EXPECT_EQ(e.tenant(), "crowded");
    EXPECT_EQ(e.queued(), 2u);
    EXPECT_EQ(e.cap(), 2u);
  }
  server.pump();
  const auto stats = server.tenantStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].submitted, 2u);
  EXPECT_EQ(stats[0].completed, 2u);
  EXPECT_EQ(stats[0].rejected, 1u);
  EXPECT_EQ(stats[0].failed, 0u);
}

TEST(ServiceConfigTest, PolicyFromStringParsesEveryName) {
  EXPECT_EQ(svc::policyFromString("fifo"), svc::Policy::Fifo);
  EXPECT_EQ(svc::policyFromString("fair"), svc::Policy::FairShare);
  EXPECT_EQ(svc::policyFromString("fair-share"), svc::Policy::FairShare);
  EXPECT_EQ(svc::policyFromString("fairshare"), svc::Policy::FairShare);
  EXPECT_EQ(svc::policyFromString("priority"), svc::Policy::Priority);

  EXPECT_THROW(svc::policyFromString("round-robin"),
               common::InvalidArgument);
}

// --- scheduling policies --------------------------------------------------

TEST_F(ServiceTest, FairShareConvergesOnWeightedPair) {
  // Both tenants stay backlogged with identical jobs; the weight-2
  // tenant must take 2/3 of the first half of dispatches.
  const std::size_t jobsEach = 9;
  svc::ServiceConfig config;
  config.policy = svc::Policy::FairShare;
  config.batchLimit = 1;
  config.queueCap = jobsEach;
  svc::JobServer server(config);
  svc::Session& a = server.openSession("w2", /*weight=*/2.0);
  svc::Session& b = server.openSession("w1", /*weight=*/1.0);

  std::vector<std::pair<svc::JobHandle, bool>> handles;
  auto sink = std::make_shared<JobSink>();
  for (std::size_t j = 0; j < jobsEach; ++j) {
    handles.emplace_back(a.submit(chainJob(j, kN, 0, sink)), true);
  }
  for (std::size_t j = 0; j < jobsEach; ++j) {
    handles.emplace_back(b.submit(chainJob(50 + j, kN, 0, sink)), false);
  }
  server.pump();

  std::vector<std::pair<std::uint64_t, bool>> order;
  for (const auto& [handle, isA] : handles) {
    handle.rethrow();
    order.emplace_back(handle.stats().dispatchNs, isA);
  }
  std::sort(order.begin(), order.end());
  std::size_t firstHalfA = 0;
  for (std::size_t i = 0; i < jobsEach; ++i) {
    firstHalfA += order[i].second ? 1 : 0;
  }
  // Identical jobs make the 2:1 interleave deterministic: A,B,A,A,B,...
  EXPECT_EQ(firstHalfA, 6u);

  const auto stats = server.tenantStats();
  EXPECT_GT(stats[0].vruntime, 0.0);
  // Equal total work, half the weighted rate: w2's vruntime is half.
  EXPECT_NEAR(stats[0].vruntime * 2.0, stats[1].vruntime,
              stats[1].vruntime * 0.01);
}

TEST_F(ServiceTest, PriorityPreemptsAtJobNotKernelGranularity) {
  svc::ServiceConfig config;
  config.policy = svc::Policy::Priority;
  config.batchLimit = 1;
  svc::JobServer server(config);
  svc::Session& low = server.openSession("low", 1.0, /*priority=*/0);
  svc::Session& high = server.openSession("high", 1.0, /*priority=*/5);

  auto sink = std::make_shared<JobSink>();
  const std::uint64_t t0 = ocl::hostTimeNs();
  std::vector<svc::JobHandle> lowHandles;
  for (std::size_t j = 0; j < 3; ++j) {
    lowHandles.push_back(low.submit(chainJob(j, kN, 0, sink)));
  }
  // Arrives just after the dispatcher committed to low's first job: it
  // must run next (ahead of low's queue) but not abort the running job.
  svc::JobHandle highHandle =
      high.submit(chainJob(99, kN, 0, sink, /*arrivalNs=*/t0 + 1000));
  server.pump();

  for (const auto& handle : lowHandles) {
    handle.rethrow();
  }
  highHandle.rethrow();
  const auto low0 = lowHandles[0].stats();
  const auto low1 = lowHandles[1].stats();
  const auto highStats = highHandle.stats();
  // Job granularity: the in-flight low job ran to completion first...
  EXPECT_GE(highStats.dispatchNs, low0.completeNs);
  // ...then the high-priority job jumped the rest of the backlog.
  EXPECT_LE(highStats.completeNs, low1.dispatchNs);
}

// A job arriving while the window has room and the job in flight still
// computes is dispatched at its arrival: the pump idles to the arrival,
// not to the end of the job in flight.
TEST_F(ServiceTest, JobArrivingMidFlightDispatchesAtItsArrival) {
  svc::ServiceConfig config;
  config.policy = svc::Policy::Fifo;
  config.batchLimit = 2;
  svc::JobServer server(config);
  svc::Session& a = server.openSession("a");
  svc::Session& b = server.openSession("b");

  auto sink = std::make_shared<JobSink>();
  const std::size_t n = std::size_t(1) << 16; // ~60 us of uploads alone
  const std::uint64_t t0 = ocl::hostTimeNs();
  svc::JobHandle first = a.submit(chainJob(1, n, 0, sink));
  svc::JobHandle second =
      b.submit(chainJob(2, n, 1, sink, /*arrivalNs=*/t0 + 30'000));
  server.pump();
  first.rethrow();
  second.rethrow();

  const auto firstStats = first.stats();
  const auto secondStats = second.stats();
  EXPECT_GT(secondStats.readyNs, firstStats.dispatchNs);
  EXPECT_LT(secondStats.readyNs, firstStats.completeNs);
  EXPECT_EQ(secondStats.dispatchNs, secondStats.readyNs);
  EXPECT_EQ(server.serverStats().maxBatch, 2u);
}

// --- batching -------------------------------------------------------------

TEST_F(ServiceTest, BatchingCoalescesSameProgramAcrossTenants) {
  svc::ServiceConfig config;
  config.policy = svc::Policy::Fifo;
  config.batchLimit = 8;
  svc::JobServer server(config);
  svc::Session& a = server.openSession("a");
  svc::Session& b = server.openSession("b");
  auto sink = std::make_shared<JobSink>();
  for (std::size_t j = 0; j < 3; ++j) {
    a.submit(chainJob(j, kN, 0, sink));
    b.submit(chainJob(10 + j, kN, 1, sink));
  }
  server.pump();
  const auto stats = server.serverStats();
  EXPECT_EQ(stats.jobsExecuted, 6u);
  // All six share one programKey and arrived before the pump: one batch.
  EXPECT_EQ(stats.maxBatch, 6u);
  EXPECT_EQ(stats.coalescedJobs, 6u);
  EXPECT_EQ(stats.batches, 1u);
}

TEST_F(ServiceTest, BatchingOffRunsEveryJobAlone) {
  svc::ServiceConfig config;
  config.batchLimit = 1;
  svc::JobServer server(config);
  svc::Session& a = server.openSession("a");
  auto sink = std::make_shared<JobSink>();
  for (std::size_t j = 0; j < 3; ++j) {
    a.submit(chainJob(j, kN, 0, sink));
  }
  server.pump();
  const auto stats = server.serverStats();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.maxBatch, 1u);
  EXPECT_EQ(stats.coalescedJobs, 0u);
}

// --- accounting -----------------------------------------------------------

TEST_F(ServiceTest, TenantAccountingChargesCyclesAndBytesExactly) {
  svc::ServiceConfig config;
  svc::JobServer server(config);
  svc::Session& a = server.openSession("acct-a");
  svc::Session& b = server.openSession("acct-b");
  auto sink = std::make_shared<JobSink>();
  std::vector<svc::JobHandle> handles;
  for (std::size_t j = 0; j < 2; ++j) {
    handles.push_back(a.submit(chainJob(j, kN, 0, sink)));
    handles.push_back(b.submit(chainJob(20 + j, kN, 1, sink)));
  }
  server.pump();

  const auto stats = server.tenantStats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GT(stats[0].deviceCycles, 0u);
  EXPECT_GT(stats[0].bytesMoved, 0u);
  // Identical job shapes on identical GPUs: the accounting must split
  // the load exactly evenly — any skew means cross-tenant bleed.
  EXPECT_EQ(stats[0].deviceCycles, stats[1].deviceCycles);
  EXPECT_EQ(stats[0].bytesMoved, stats[1].bytesMoved);

  // Per-job deltas add up to the tenant totals.
  EXPECT_EQ(stats[0].tenant, "acct-a");
  EXPECT_EQ(stats[0].completed, 2u);
  EXPECT_EQ(handles[0].stats().deviceCycles + handles[2].stats().deviceCycles,
            stats[0].deviceCycles);
  EXPECT_EQ(handles[0].stats().bytesMoved + handles[2].stats().bytesMoved,
            stats[0].bytesMoved);
}

/// Runs `leaky` and then a chainJob whose solo charge is known; returns
/// the leaky job's handle after checking that the chain job was charged
/// exactly its solo cycles and bytes.
svc::JobHandle runBeforeChain(svc::Job leaky) {
  svc::ServiceConfig config;
  // One job at a time: the chain job starts, and drains, only after the
  // leaky job's consume() ran.
  config.batchLimit = 1;
  std::uint64_t soloCycles = 0;
  std::uint64_t soloBytes = 0;
  {
    svc::JobServer server(config);
    svc::JobHandle handle = server.openSession("solo").submit(
        chainJob(5, kN, 0, std::make_shared<JobSink>()));
    server.pump();
    handle.rethrow();
    soloCycles = handle.stats().deviceCycles;
    soloBytes = handle.stats().bytesMoved;
  }
  svc::JobServer server(config);
  svc::JobHandle handle = server.openSession("leaky").submit(std::move(leaky));
  svc::JobHandle next = server.openSession("next").submit(
      chainJob(5, kN, 0, std::make_shared<JobSink>()));
  server.pump();
  next.rethrow();
  EXPECT_EQ(next.stats().deviceCycles, soloCycles);
  EXPECT_EQ(next.stats().bytesMoved, soloBytes);
  return handle;
}

/// Defers a Map whose result outlives the job.
void deferKept(const std::shared_ptr<Vector<float>>& kept) {
  Map<float> scale("float svf_scale(float x) { return 3.0f * x; }");
  Vector<float> input(seededA(kN, 9));
  input.setDistribution(skelcl::Distribution::Single, 0);
  *kept = scale(input);
}

// A call a job defers and keeps alive must not wait for the next job's
// drain, which would charge the next job for it.
TEST_F(ServiceTest, FailedWorkIsChargedForItsOwnDeferredCalls) {
  auto kept = std::make_shared<Vector<float>>();
  svc::Job failing;
  failing.work = [kept](svc::JobContext&) {
    deferKept(kept);
    throw std::runtime_error("work failed after deferring");
  };
  const svc::JobHandle failed = runBeforeChain(failing);
  EXPECT_THROW(
      {
        try {
          failed.rethrow();
        } catch (const std::runtime_error& error) {
          EXPECT_STREQ(error.what(), "work failed after deferring");
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(ServiceTest, ConsumeIsChargedForItsOwnDeferredCalls) {
  auto kept = std::make_shared<Vector<float>>();
  svc::Job deferring;
  deferring.work = [](svc::JobContext&) {};
  deferring.consume = [kept] { deferKept(kept); };
  runBeforeChain(deferring).rethrow();
}

// --- runtime stats scopes (windowed counters) -----------------------------

TEST_F(ServiceTest, StatsScopeIsolatesFusionAndCacheDeltas) {
  auto& runtime = skelcl::detail::Runtime::instance();
  // Warm up: compile the chain's program once outside any scope.
  directChain(0, kN, 0);

  {
    skelcl::detail::StatsScope scope;
    directChain(1, kN, 0);
    const auto fusion = scope.fusionDelta();
    // Map(Zip) fuses under the default rewrite rules: the scope must see
    // exactly this run's fusion work, not history.
    EXPECT_GT(fusion.fusedStages, 0u);
  }

  // A cleared program memo forces one cache resolution, visible only
  // inside the scope that did it.
  runtime.clearPrograms();
  skelcl::detail::StatsScope reloadScope;
  directChain(2, kN, 0);
  const auto cache = reloadScope.cacheDelta();
  EXPECT_GE(cache.hits + cache.misses, 1u);
}

// --- scheduler cross-thread contract --------------------------------------

TEST_F(ServiceTest, SchedulerRejectsCrossThreadSubmissionWhilePending) {
  auto& scheduler = skelcl::detail::Scheduler::instance();
  if (!scheduler.asyncEnabled()) {
    GTEST_SKIP() << "async scheduler disabled";
  }
  Map<float> scale("float svx_scale(float x) { return 3.0f * x; }");
  Vector<float> input(seededA(kN, 0));
  // Registers a deferred job owned by this thread.
  Vector<float> pending = scale(input);

  std::atomic<bool> submitThrew{false};
  std::atomic<bool> adoptThrew{false};
  std::thread other([&] {
    try {
      Vector<float> local(seededA(kN, 1));
      Vector<float> deferred = scale(local); // noteDeferred from a stranger
      (void)deferred;
    } catch (const common::Error&) {
      submitThrew = true;
    }
    try {
      scheduler.adoptCallingThread();
    } catch (const common::Error&) {
      adoptThrew = true;
    }
  });
  other.join();
  EXPECT_TRUE(submitThrew.load());
  EXPECT_TRUE(adoptThrew.load());

  // The owning thread still drains its job normally.
  const auto data = pending.hostData();
  EXPECT_EQ(data.size(), kN);
}

// --- trace: the skeltrace tenant report -----------------------------------

TEST_F(ServiceTest, TraceReportCarriesTenantSection) {
  trace::Recorder::instance().start();
  {
    svc::JobServer server{svc::ServiceConfig{}};
    svc::Session& a = server.openSession("trace-a");
    svc::Session& b = server.openSession("trace-b");
    auto sink = std::make_shared<JobSink>();
    for (std::size_t j = 0; j < 2; ++j) {
      a.submit(chainJob(j, kN, 0, sink));
      b.submit(chainJob(30 + j, kN, 1, sink));
    }
    server.pump();
  }
  const trace::Trace trace = trace::Recorder::instance().stop();

  const trace::Report report = trace::analyze(trace);
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].name, "trace-a");
  EXPECT_EQ(report.tenants[1].name, "trace-b");
  for (const auto& tenant : report.tenants) {
    EXPECT_EQ(tenant.jobs, 2u);
    EXPECT_GT(tenant.execNs, 0u);
    EXPECT_GT(tenant.deviceCycles, 0u);
    EXPECT_GT(tenant.bytesMoved, 0u);
  }

  const std::string text = trace::formatReport(report);
  EXPECT_NE(text.find("tenants (job service)"), std::string::npos);
  EXPECT_NE(text.find("trace-a"), std::string::npos);
}

// --- threaded serving mode (the tsan-smoke stress) ------------------------

TEST_F(ServiceTest, StressThreadedClientsDrainEveryJob) {
  svc::ServiceConfig config;
  config.queueCap = 4; // small: exercises overload retry under threads
  svc::JobServer server(config);
  const std::size_t tenants = 3;
  const std::size_t jobsPer = 6;
  std::vector<svc::Session*> sessions;
  for (std::size_t t = 0; t < tenants; ++t) {
    sessions.push_back(
        &server.openSession("stress-" + std::to_string(t)));
  }
  server.start();

  // A monitoring client polls the live tenant rows while the dispatcher
  // charges them: every total only ever grows.
  std::atomic<bool> drained{false};
  std::atomic<std::size_t> shrinks{0};
  std::atomic<std::size_t> polls{0};
  std::thread monitor([&] {
    std::vector<svc::JobServer::TenantStats> last = server.tenantStats();
    while (!drained.load()) {
      const auto now = server.tenantStats();
      for (std::size_t t = 0; t < tenants; ++t) {
        if (now[t].deviceCycles < last[t].deviceCycles ||
            now[t].bytesMoved < last[t].bytesMoved ||
            now[t].queueWaitNs < last[t].queueWaitNs ||
            now[t].completed < last[t].completed) {
          ++shrinks;
        }
      }
      last = now;
      ++polls;
      std::this_thread::yield();
    }
  });

  std::vector<std::vector<svc::JobHandle>> handles(tenants);
  std::vector<std::vector<std::shared_ptr<JobSink>>> sinks(tenants);
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < tenants; ++t) {
    handles[t].resize(jobsPer);
    sinks[t].resize(jobsPer);
    clients.emplace_back([&, t] {
      for (std::size_t j = 0; j < jobsPer; ++j) {
        auto sink = std::make_shared<JobSink>();
        sinks[t][j] = sink;
        while (true) {
          try {
            handles[t][j] =
                sessions[t]->submit(chainJob(t * 100 + j, kN, t % 2, sink));
            break;
          } catch (const svc::ServiceOverload&) {
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  for (auto& perTenant : handles) {
    for (auto& handle : perTenant) {
      handle.wait();
    }
  }
  drained = true;
  monitor.join();
  server.stop();
  EXPECT_GT(polls.load(), 0u);
  EXPECT_EQ(shrinks.load(), 0u);

  const auto rows = server.tenantStats();
  ASSERT_EQ(rows.size(), tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    std::uint64_t cycles = 0, bytes = 0, waitNs = 0;
    for (std::size_t j = 0; j < jobsPer; ++j) {
      EXPECT_FALSE(handles[t][j].failed());
      const svc::JobStats job = handles[t][j].stats();
      cycles += job.deviceCycles;
      bytes += job.bytesMoved;
      waitNs += job.queueWaitNs();
      const auto expected = directChain(t * 100 + j, kN, t % 2);
      ASSERT_EQ(sinks[t][j]->data.size(), expected.size());
      EXPECT_EQ(0, std::memcmp(sinks[t][j]->data.data(), expected.data(),
                               expected.size() * sizeof(float)));
    }
    EXPECT_EQ(rows[t].completed, jobsPer) << t;
    EXPECT_GT(rows[t].deviceCycles, 0u) << t;
    EXPECT_EQ(rows[t].deviceCycles, cycles) << t;
    EXPECT_EQ(rows[t].bytesMoved, bytes) << t;
    EXPECT_EQ(rows[t].queueWaitNs, waitNs) << t;
  }
}

TEST_F(ServiceTest, StressThreadedStencilJobsDrainByteIdentically) {
  // Threaded clients racing stencil jobs through the dispatcher: each
  // job runs a block-distributed 2D stencil whose halo exchange
  // stresses the inter-device event DAG from the service's threads.
  const std::size_t rows = 37, width = 8;
  const auto seededGrid = [&](std::size_t seed) {
    std::vector<float> g(rows * width);
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = float((i * 131 + seed * 17) % 251) * 0.125f;
    }
    return g;
  };
  const char* kHeat =
      "float svt_heat(__global const float* w, uint st) {"
      "  return 0.25f * (w[1] + w[(int)st] + w[(int)st + 2]"
      "                  + w[2 * (int)st + 1]);"
      "}";
  const auto stencilJob = [&](std::size_t seed,
                              const std::shared_ptr<JobSink>& sink) {
    svc::Job job;
    job.programKey = "svt-stencil";
    auto out = std::make_shared<Vector<float>>();
    job.work = [=](svc::JobContext& ctx) {
      skelcl::Stencil<float> heat(
          kHeat, skelcl::StencilShape{1, skelcl::Boundary::Clamp,
                                      std::uint32_t(width)});
      Vector<float> v(seededGrid(seed));
      *out = heat(v);
      ctx.defer(*out);
    };
    job.consume = [=] { sink->data = out->hostData(); };
    return job;
  };

  std::vector<std::vector<float>> direct;
  for (std::size_t j = 0; j < 4; ++j) {
    skelcl::Stencil<float> heat(
        kHeat, skelcl::StencilShape{1, skelcl::Boundary::Clamp,
                                    std::uint32_t(width)});
    Vector<float> v(seededGrid(j));
    direct.push_back(heat(v).hostData());
  }

  svc::ServiceConfig config;
  config.queueCap = 2; // small: overload retry under threads
  svc::JobServer server(config);
  const std::size_t tenants = 2, jobsPer = 2;
  std::vector<svc::Session*> sessions;
  for (std::size_t t = 0; t < tenants; ++t) {
    sessions.push_back(
        &server.openSession("stencil-" + std::to_string(t)));
  }
  server.start();

  std::vector<std::vector<svc::JobHandle>> handles(tenants);
  std::vector<std::vector<std::shared_ptr<JobSink>>> sinks(tenants);
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < tenants; ++t) {
    handles[t].resize(jobsPer);
    sinks[t].resize(jobsPer);
    clients.emplace_back([&, t] {
      for (std::size_t j = 0; j < jobsPer; ++j) {
        auto sink = std::make_shared<JobSink>();
        sinks[t][j] = sink;
        while (true) {
          try {
            handles[t][j] =
                sessions[t]->submit(stencilJob(t * jobsPer + j, sink));
            break;
          } catch (const svc::ServiceOverload&) {
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  for (auto& perTenant : handles) {
    for (auto& handle : perTenant) {
      handle.wait();
    }
  }
  server.stop();

  for (std::size_t t = 0; t < tenants; ++t) {
    for (std::size_t j = 0; j < jobsPer; ++j) {
      EXPECT_FALSE(handles[t][j].failed());
      const auto& expected = direct[t * jobsPer + j];
      ASSERT_EQ(sinks[t][j]->data.size(), expected.size());
      EXPECT_EQ(0, std::memcmp(sinks[t][j]->data.data(), expected.data(),
                               expected.size() * sizeof(float)));
    }
  }
}

} // namespace
