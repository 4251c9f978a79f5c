// Tenant fault isolation under SKELCL_FAULT_PLAN: an injected device
// loss or allocation failure inside one tenant's job must surface as
// the original typed ClError on that tenant's JobHandles only, while a
// concurrent tenant's outputs stay byte-identical to a solo run on the
// same two-GPU system. Tenants are separable in the plan because their
// jobs launch differently named kernels (alpha: Map -> "skelcl_map",
// beta: Zip -> "skelcl_zip") and because FIFO order with batching off
// makes the per-site call sequence deterministic (one device-loss case
// runs with a window of jobs in flight, which pump mode keeps just as
// deterministic). Run with `ctest -L service`.
#include <cstring>
#include <memory>
#include <vector>

#include "skelcl_test_util.h"

#include "ocl/fault.h"
#include "service/service.h"

namespace {

namespace svc = skelcl::service;
using skelcl::Map;
using skelcl::Vector;
using skelcl::Zip;

constexpr std::size_t kN = 4096;
constexpr std::size_t kJobs = 4;

struct JobSink {
  std::vector<float> data;
};

std::vector<float> alphaData(std::size_t n, std::size_t seed) {
  std::vector<float> a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = float((i + 11 * seed) % 37) * 0.125f;
  }
  return a;
}

/// Alpha's job: a single Map on GPU 0 ("skelcl_map" launches).
svc::Job alphaJob(std::size_t seed,
                  const std::shared_ptr<JobSink>& sink) {
  svc::Job job;
  job.programKey = "svf-map";
  auto out = std::make_shared<Vector<float>>();
  job.work = [=](svc::JobContext& ctx) {
    Map<float> twist("float svf_twist(float x) { return 2.0f * x + 1.0f; }");
    Vector<float> va(alphaData(kN, seed));
    va.setDistribution(skelcl::Distribution::Single, 0);
    *out = twist(va);
    ctx.defer(*out);
  };
  job.consume = [=] { sink->data = out->hostData(); };
  return job;
}

/// Beta's job: a single Zip on GPU 1 ("skelcl_zip" launches) — what the
/// fault plans target.
svc::Job betaJob(std::size_t seed,
                 const std::shared_ptr<JobSink>& sink) {
  svc::Job job;
  job.programKey = "svf-zip";
  auto out = std::make_shared<Vector<float>>();
  job.work = [=](svc::JobContext& ctx) {
    Zip<float> pair("float svf_pair(float x, float y) { return x + y; }");
    std::vector<float> a(kN), b(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      a[i] = float((i + 5 * seed) % 23) * 0.5f;
      b[i] = float((i * 3 + seed) % 19) * 0.25f;
    }
    Vector<float> va(std::move(a));
    Vector<float> vb(std::move(b));
    va.setDistribution(skelcl::Distribution::Single, 1);
    vb.setDistribution(skelcl::Distribution::Single, 1);
    *out = pair(va, vb);
    ctx.defer(*out);
  };
  job.consume = [=] { sink->data = out->hostData(); };
  return job;
}

void initSystem() {
  skelcl_test::useTempCacheDir();
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(2));
  skelcl::init(skelcl::DeviceSelection::nGPUs(2));
}

/// FIFO, deterministic in pump mode; batching off runs one job at a
/// time, batching on keeps up to the default batchLimit jobs in flight.
svc::ServiceConfig deterministicConfig(bool batching = false) {
  svc::ServiceConfig config;
  config.policy = svc::Policy::Fifo;
  if (!batching) {
    config.batchLimit = 1;
  }
  config.queueCap = 2 * kJobs;
  return config;
}

/// Alpha alone, no faults: the reference outputs.
std::vector<std::vector<float>> runAlphaSolo() {
  initSystem();
  std::vector<std::vector<float>> outputs;
  {
    svc::JobServer server(deterministicConfig());
    svc::Session& alpha = server.openSession("alpha");
    std::vector<std::shared_ptr<JobSink>> sinks;
    std::vector<svc::JobHandle> handles;
    for (std::size_t j = 0; j < kJobs; ++j) {
      auto sink = std::make_shared<JobSink>();
      sinks.push_back(sink);
      handles.push_back(alpha.submit(alphaJob(j, sink)));
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

struct SharedRun {
  std::vector<std::vector<float>> alphaOutputs;
  std::vector<svc::JobHandle> alphaHandles;
  std::vector<svc::JobHandle> betaHandles;
  std::vector<ocl::Fault> fired;
};

/// Alpha and beta interleaved through one FIFO server with `plan` armed
/// via SKELCL_FAULT_PLAN for the whole init() cycle. `betaFirst` puts
/// beta's first job at the head of the global order (the alloc plan
/// counts calls from there).
SharedRun runShared(const char* plan, bool betaFirst,
                    bool batching = false) {
  ::setenv("SKELCL_FAULT_PLAN", plan, 1);
  initSystem();
  ::unsetenv("SKELCL_FAULT_PLAN");

  SharedRun run;
  {
    svc::JobServer server(deterministicConfig(batching));
    svc::Session& alpha = server.openSession("alpha");
    svc::Session& beta = server.openSession("beta");
    std::vector<std::shared_ptr<JobSink>> alphaSinks;
    for (std::size_t j = 0; j < kJobs; ++j) {
      auto sinkB = std::make_shared<JobSink>();
      if (betaFirst) {
        run.betaHandles.push_back(beta.submit(betaJob(j, sinkB)));
      }
      auto sinkA = std::make_shared<JobSink>();
      alphaSinks.push_back(sinkA);
      run.alphaHandles.push_back(alpha.submit(alphaJob(j, sinkA)));
      if (!betaFirst) {
        run.betaHandles.push_back(beta.submit(betaJob(j, sinkB)));
      }
    }
    server.pump();
    for (const auto& sink : alphaSinks) {
      run.alphaOutputs.push_back(sink->data);
    }
  }
  run.fired = ocl::FaultInjector::instance().firedLog();
  ocl::FaultInjector::instance().reset();
  skelcl::terminate();
  return run;
}

void expectAlphaIntact(const SharedRun& run,
                       const std::vector<std::vector<float>>& solo) {
  for (std::size_t j = 0; j < kJobs; ++j) {
    EXPECT_FALSE(run.alphaHandles[j].failed()) << "alpha job " << j;
    ASSERT_EQ(run.alphaOutputs[j].size(), solo[j].size());
    EXPECT_EQ(0, std::memcmp(run.alphaOutputs[j].data(), solo[j].data(),
                             solo[j].size() * sizeof(float)))
        << "alpha job " << j << " diverged from its solo run";
  }
}

TEST(ServiceFault, DeviceLostConfinesItselfToTheFaultedTenant) {
  const auto solo = runAlphaSolo();
  // Beta's second Zip launch kills GPU 1; alpha lives on GPU 0.
  const SharedRun run =
      runShared("kernel~skelcl_zip@2=lost", /*betaFirst=*/false);

  expectAlphaIntact(run, solo);

  // Beta's first job preceded the fault; every later one finds the
  // device gone and fails with the typed DeviceLost.
  EXPECT_FALSE(run.betaHandles[0].failed());
  for (std::size_t j = 1; j < kJobs; ++j) {
    EXPECT_TRUE(run.betaHandles[j].failed()) << "beta job " << j;
    EXPECT_THROW(run.betaHandles[j].rethrow(), ocl::DeviceLost);
  }

  ASSERT_EQ(run.fired.size(), 1u);
  EXPECT_EQ(run.fired[0].site, ocl::FaultSite::Kernel);
  EXPECT_TRUE(run.fired[0].deviceLost);
  EXPECT_EQ(run.fired[0].device, 1u);
}

TEST(ServiceFault, DeviceLostWithJobsInFlightConfinesItselfToTheTenant) {
  const auto solo = runAlphaSolo();
  // The same plan with a window of jobs in flight: beta's second Zip
  // launch kills GPU 1 while other jobs of both tenants are in flight.
  const SharedRun run = runShared("kernel~skelcl_zip@2=lost",
                                  /*betaFirst=*/false, /*batching=*/true);

  expectAlphaIntact(run, solo);

  // Beta's first job computed its result before the fault, but its
  // download comes after it, at its consume(): a job in flight on a
  // lost device fails with it. Every beta job fails typed.
  for (std::size_t j = 0; j < kJobs; ++j) {
    EXPECT_TRUE(run.betaHandles[j].failed()) << "beta job " << j;
    EXPECT_THROW(run.betaHandles[j].rethrow(), ocl::DeviceLost);
  }

  ASSERT_EQ(run.fired.size(), 1u);
  EXPECT_TRUE(run.fired[0].deviceLost);
  EXPECT_EQ(run.fired[0].device, 1u);
}

TEST(ServiceFault, AllocFailureFailsOneJobAndNothingElse) {
  const auto solo = runAlphaSolo();
  // Beta submits first, so the very first buffer allocation of the run
  // belongs to beta's job 0; alloc@1 fails exactly that one.
  const SharedRun run = runShared("alloc@1", /*betaFirst=*/true);

  expectAlphaIntact(run, solo);

  EXPECT_TRUE(run.betaHandles[0].failed());
  EXPECT_THROW(run.betaHandles[0].rethrow(), ocl::AllocFailure);
  // A one-shot allocation failure is transient: beta's later jobs run.
  for (std::size_t j = 1; j < kJobs; ++j) {
    EXPECT_FALSE(run.betaHandles[j].failed()) << "beta job " << j;
  }

  ASSERT_EQ(run.fired.size(), 1u);
  EXPECT_EQ(run.fired[0].site, ocl::FaultSite::Alloc);
  EXPECT_EQ(run.fired[0].device, 1u);
}

} // namespace
