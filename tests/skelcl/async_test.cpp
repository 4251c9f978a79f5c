// Differential tests for the asynchronous task-graph scheduler: every
// scenario runs with the scheduler on (the default) and under
// SKELCL_ASYNC=0 (each in its own init()..terminate() cycle). Async may
// only change WHEN commands are enqueued — independent jobs pipeline on
// the devices — never WHAT a program computes:
//  * single-job programs keep bit-identical outputs AND bit-identical
//    final virtual time (a one-job drain IS the synchronous force);
//  * multi-job programs keep bit-identical outputs and finish strictly
//    earlier in virtual time (that is the feature);
//  * a fault in one job surfaces as the original typed ClError at that
//    job's own consumption point, with every other job's result intact;
//  * traced async runs stay byte-identical run to run, and the trace
//    carries the scheduler's job spans.
#include <cstring>
#include <functional>
#include <numeric>

#include "skelcl_test_util.h"
#include "trace/analysis.h"
#include "trace/chrome_export.h"
#include "trace/recorder.h"
#include "trace/serialize.h"

namespace {

using skelcl::Map;
using skelcl::Reduce;
using skelcl::Vector;
using skelcl::Zip;

struct RunResult {
  std::vector<std::vector<float>> outputs;
  std::vector<float> scalars;
  std::uint64_t finalVirtualNs = 0;
  trace::Report report;     // of the scenario's recording
  std::uint64_t drains = 0; // lane-1 sched.job spans: one per drain
};

std::vector<float> testData(std::size_t n, std::size_t seed = 0) {
  std::vector<float> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = float((i + seed) % 89) * 0.4375f - 9.0f;
  }
  return data;
}

/// Runs `scenario` in a fresh init()..terminate() cycle with the async
/// scheduler on or off, recorded; the final virtual time is taken after
/// every device queue drained, so trailing downloads count in both modes.
/// What the scheduler did is read from the recording's sched.job spans.
RunResult runScenario(const std::function<void(RunResult&)>& scenario,
                      bool async, std::uint32_t gpus = 1) {
  skelcl_test::useTempCacheDir();
  ::setenv("SKELCL_ASYNC", async ? "1" : "0", 1);
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
  skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
  trace::Recorder::instance().start();

  RunResult result;
  scenario(result);

  auto& runtime = skelcl::detail::Runtime::instance();
  for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
    runtime.queue(d).finish();
  }
  result.finalVirtualNs = ocl::hostTimeNs();
  const trace::Trace recorded = trace::Recorder::instance().stop();
  result.report = trace::analyze(recorded);
  for (const trace::HostSpanRecord& span : recorded.hostSpans) {
    if (span.kind == trace::HostKind::Scheduler && span.lane == 1) {
      ++result.drains; // a drain puts its first job on lane 1
    }
  }
  skelcl::terminate();
  ::unsetenv("SKELCL_ASYNC");
  return result;
}

bool bitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// --- single-job invariance ----------------------------------------------

TEST(AsyncScheduler, SingleJobKeepsOutputAndVirtualTimeBitIdentical) {
  // One dependent chain: at its consumption point exactly one root job
  // is outstanding, so the drain must degenerate to the synchronous
  // force — same commands, same virtual clock, same bits.
  auto scenario = [](RunResult& out) {
    Map<float> scale("float as_scale(float x) { return 1.5f * x; }");
    Map<float> shift("float as_shift(float x) { return x - 2.0f; }");
    Reduce<float> sum("float as_sum(float a, float b) { return a + b; }");
    Vector<float> input(testData(20000));
    out.scalars.push_back(sum(shift(scale(input))).getValue());
  };
  const RunResult on = runScenario(scenario, /*async=*/true);
  const RunResult off = runScenario(scenario, /*async=*/false);
  EXPECT_TRUE(bitIdentical(on.scalars, off.scalars));
  EXPECT_EQ(on.finalVirtualNs, off.finalVirtualNs);
  EXPECT_EQ(on.report.schedulerJobs, 1u);
  EXPECT_EQ(off.report.schedulerJobs, 0u); // scheduler off: no registry
}

TEST(AsyncScheduler, SingleJobChainOnMultipleDevicesStaysInvariant) {
  auto scenario = [](RunResult& out) {
    Map<float> inc("float as_inc(float x) { return x + 0.25f; }");
    Vector<float> input(testData(9999));
    input.setDistribution(skelcl::Distribution::Block);
    out.outputs.push_back(inc(inc(input)).hostData());
  };
  const RunResult on = runScenario(scenario, /*async=*/true, /*gpus=*/3);
  const RunResult off = runScenario(scenario, /*async=*/false, /*gpus=*/3);
  EXPECT_TRUE(bitIdentical(on.outputs[0], off.outputs[0]));
  EXPECT_EQ(on.finalVirtualNs, off.finalVirtualNs);
}

// --- multi-job overlap ---------------------------------------------------

/// Four independent map chains, consumed after all four are registered.
void fourIndependentChains(RunResult& out) {
  Map<float> scale("float as4_scale(float x) { return 2.0f * x; }");
  Map<float> shift("float as4_shift(float x) { return x + 3.0f; }");
  std::vector<Vector<float>> results;
  for (std::size_t job = 0; job < 4; ++job) {
    Vector<float> input(testData(16384, job));
    results.push_back(shift(scale(input)));
  }
  for (auto& r : results) {
    out.outputs.push_back(r.hostData());
  }
}

TEST(AsyncScheduler, IndependentJobsOverlapWithIdenticalValues) {
  const RunResult on = runScenario(fourIndependentChains, /*async=*/true);
  const RunResult off = runScenario(fourIndependentChains, /*async=*/false);
  ASSERT_EQ(on.outputs.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(bitIdentical(on.outputs[i], off.outputs[i])) << i;
  }
  // The first consumption dispatches all four jobs; the later reads
  // block only on work already in flight — strictly better makespan.
  EXPECT_LT(on.finalVirtualNs, off.finalVirtualNs);
  EXPECT_EQ(on.report.schedulerJobs, 4u);
  EXPECT_EQ(on.report.maxConcurrentJobs, 4u);
  EXPECT_EQ(on.drains, 1u);
}

TEST(AsyncScheduler, IndependentDotProductsOverlap) {
  auto scenario = [](RunResult& out) {
    Zip<float> mult("float as_mult(float x, float y) { return x * y; }");
    Reduce<float> sum("float as_dsum(float a, float b) { return a + b; }");
    std::vector<skelcl::Scalar<float>> results;
    for (std::size_t job = 0; job < 3; ++job) {
      Vector<float> a(testData(8192, job));
      Vector<float> b(testData(8192, job + 11));
      results.push_back(sum(mult(a, b)));
    }
    for (auto& r : results) {
      out.scalars.push_back(r.getValue());
    }
  };
  const RunResult on = runScenario(scenario, /*async=*/true);
  const RunResult off = runScenario(scenario, /*async=*/false);
  EXPECT_TRUE(bitIdentical(on.scalars, off.scalars));
  EXPECT_LT(on.finalVirtualNs, off.finalVirtualNs);
  EXPECT_EQ(on.report.maxConcurrentJobs, 3u);
}

TEST(AsyncScheduler, DependentChainsDispatchOnceThroughTheirRoot) {
  // A shared intermediate with fanout does not double-evaluate under a
  // drain: the roots force it exactly once, values match sync.
  auto scenario = [](RunResult& out) {
    Map<float> inc("float asd_inc(float x) { return x + 1.0f; }");
    Map<float> dbl("float asd_dbl(float x) { return 2.0f * x; }");
    Zip<float> add("float asd_add(float x, float y) { return x + y; }");
    Vector<float> input(testData(4096));
    Vector<float> shared = inc(input);
    Vector<float> left = dbl(shared);
    Vector<float> right = add(shared, left);
    out.outputs.push_back(right.hostData());
    out.outputs.push_back(left.hostData());
    out.outputs.push_back(shared.hostData());
  };
  const RunResult on = runScenario(scenario, /*async=*/true);
  const RunResult off = runScenario(scenario, /*async=*/false);
  ASSERT_EQ(on.outputs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(bitIdentical(on.outputs[i], off.outputs[i])) << i;
  }
}

// --- per-job fault isolation --------------------------------------------

/// Two independent single-map jobs under a plan failing the second
/// kernel launch: job B (registered second, dispatched second) fails,
/// job A survives. `consumeFailingFirst` flips which job is read first —
/// the poisoned error must wait at B's consumption point either way.
void runFaultIsolation(bool consumeFailingFirst) {
  skelcl_test::useTempCacheDir();
  ::setenv("SKELCL_FAULT_PLAN", "kernel@2", 1);
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(1));
  skelcl::init(skelcl::DeviceSelection::nGPUs(1));
  {
    Map<float> inc("float asf_inc(float x) { return x + 1.0f; }");
    const std::vector<float> data = testData(2048);
    Vector<float> inputA(data);
    Vector<float> inputB(data);
    Vector<float> a = inc(inputA); // kernel #1: survives
    Vector<float> b = inc(inputB); // kernel #2: injected failure

    if (consumeFailingFirst) {
      EXPECT_THROW((void)b.hostData(), ocl::ClError);
      const std::vector<float> ok = a.hostData();
      ASSERT_EQ(ok.size(), data.size());
      EXPECT_EQ(ok[7], data[7] + 1.0f);
    } else {
      const std::vector<float> ok = a.hostData();
      ASSERT_EQ(ok.size(), data.size());
      EXPECT_EQ(ok[7], data[7] + 1.0f);
      EXPECT_THROW((void)b.hostData(), ocl::ClError);
    }
    // The synchronous contract carries over: a failed evaluation is
    // never retried, and the error rethrows exactly once — the next
    // read sees plain (empty) host data.
    EXPECT_NO_THROW((void)b.hostData());
  }
  skelcl::terminate();
  ::unsetenv("SKELCL_FAULT_PLAN");
  ocl::FaultInjector::instance().reset();
}

TEST(AsyncScheduler, FaultPoisonsOnlyTheFailingJob) {
  runFaultIsolation(/*consumeFailingFirst=*/false);
}

TEST(AsyncScheduler, PoisonedJobThrowsEvenWhenConsumedFirst) {
  runFaultIsolation(/*consumeFailingFirst=*/true);
}

TEST(AsyncScheduler, FaultSequencesMatchSynchronousRuns) {
  // Same plan, same program, async on vs off: the same calls fail with
  // the same typed errors (every job builds its programs inline as it
  // dispatches, so the injector sees builds and launches in the
  // synchronous order).
  auto cycle = [](bool async) {
    skelcl_test::useTempCacheDir();
    ::setenv("SKELCL_ASYNC", async ? "1" : "0", 1);
    ::setenv("SKELCL_FAULT_PLAN", "kernel@3", 1);
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(1));
    skelcl::init(skelcl::DeviceSelection::nGPUs(1));
    std::vector<std::string> log;
    {
      Map<float> inc("float asq_inc(float x) { return x + 1.0f; }");
      std::vector<Vector<float>> jobs;
      for (std::size_t j = 0; j < 4; ++j) {
        jobs.push_back(inc(Vector<float>(testData(1024, j))));
      }
      for (auto& job : jobs) {
        try {
          (void)job.hostData();
          log.emplace_back("ok");
        } catch (const ocl::ClError& e) {
          log.emplace_back(e.what());
        }
      }
    }
    skelcl::terminate();
    ::unsetenv("SKELCL_FAULT_PLAN");
    ::unsetenv("SKELCL_ASYNC");
    ocl::FaultInjector::instance().reset();
    return log;
  };
  EXPECT_EQ(cycle(/*async=*/true), cycle(/*async=*/false));
}

// --- trace integration ---------------------------------------------------

/// One 3-job drain (two independent chains + a dot product) inside the
/// caller's init()..terminate() cycle.
void multiJobDrain() {
  Map<float> inc("float ast_inc(float x) { return x + 1.0f; }");
  Map<float> dbl("float ast_dbl(float x) { return 2.0f * x; }");
  Zip<float> mult("float ast_mult(float x, float y) { return x * y; }");
  Reduce<float> sum("float ast_sum(float a, float b) { return a + b; }");
  Vector<float> u = inc(Vector<float>(testData(8192, 1)));
  Vector<float> v = dbl(Vector<float>(testData(8192, 2)));
  skelcl::Scalar<float> s =
      sum(mult(Vector<float>(testData(8192, 3)),
               Vector<float>(testData(8192, 4))));
  (void)u.hostData();
  (void)v.hostData();
  (void)s.getValue();
}

void initOneGpu() {
  skelcl_test::useTempCacheDir();
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(1));
  skelcl::init(skelcl::DeviceSelection::nGPUs(1));
}

/// Traced multi-job run: one init() cycle, recorded around its drain.
trace::Trace tracedMultiJobRun() {
  initOneGpu();
  trace::Recorder::instance().start();
  multiJobDrain();
  trace::Trace trace = trace::Recorder::instance().stop();
  skelcl::terminate();
  return trace;
}

TEST(AsyncScheduler, TracedRunsAreByteIdenticalAcrossRuns) {
  tracedMultiJobRun(); // warm the kernel cache (hit-vs-build may differ)
  const trace::Trace a = tracedMultiJobRun();
  const trace::Trace b = tracedMultiJobRun();
  EXPECT_EQ(trace::serialize(a), trace::serialize(b));
  EXPECT_EQ(trace::chromeJson(a), trace::chromeJson(b));
}

TEST(AsyncScheduler, ColdMultiJobDrainTracesAreDeterministic) {
  // Every program of the 3-job drain builds inline, inside the job that
  // needs it. The kernel cache binds its directory once per process, so
  // each run starts from that directory emptied.
  auto coldRun = [] {
    skelcl_test::useTempCacheDir();
    skelcl::detail::Runtime::instance().kernelCache().clear();
    return tracedMultiJobRun();
  };
  const trace::Trace a = coldRun();
  const trace::Trace b = coldRun();
  EXPECT_EQ(trace::serialize(a), trace::serialize(b));
  EXPECT_EQ(trace::chromeJson(a), trace::chromeJson(b));

  ::setenv("SKELCL_ASYNC", "0", 1);
  const trace::Trace sync = coldRun();
  ::unsetenv("SKELCL_ASYNC");
  const trace::Report cold = trace::analyze(a);
  EXPECT_GT(cold.cacheMisses, 0u);
  EXPECT_EQ(cold.cacheHits, 0u);
  EXPECT_EQ(cold.cacheMisses, trace::analyze(sync).cacheMisses);
}

TEST(AsyncScheduler, TraceCarriesSchedulerSpansAndReportCounts) {
  const trace::Trace trace = tracedMultiJobRun();
  const trace::Report report = trace::analyze(trace);
  EXPECT_EQ(report.schedulerJobs, 3u);
  EXPECT_EQ(report.maxConcurrentJobs, 3u);
  // Jobs registered before the drain waited a nonzero virtual interval
  // (the skeleton calls advanced the clock by enqueueing uploads).
  EXPECT_GT(report.schedQueueWaitNs, 0u);
  const std::string text = trace::formatReport(report);
  EXPECT_NE(text.find("scheduler:"), std::string::npos);
  EXPECT_NE(text.find("max concurrent jobs"), std::string::npos);
  // Chrome export lays scheduler jobs out on per-slot host rows.
  const std::string json = trace::chromeJson(trace);
  EXPECT_NE(json.find("async job slot"), std::string::npos);
  EXPECT_NE(json.find("sched.job"), std::string::npos);
}

// The largest drain is read from the scheduler spans of the recording
// itself, whatever the scheduler saw outside it.
TEST(AsyncScheduler, MaxConcurrentJobsSpansInitCycles) {
  trace::Recorder::instance().start();
  for (int cycle = 0; cycle < 2; ++cycle) {
    initOneGpu();
    multiJobDrain();
    skelcl::terminate();
  }
  const trace::Report report =
      trace::analyze(trace::Recorder::instance().stop());
  EXPECT_EQ(report.schedulerJobs, 6u);
  EXPECT_EQ(report.maxConcurrentJobs, 3u);
}

TEST(AsyncScheduler, MaxConcurrentJobsIgnoresUntracedDrains) {
  initOneGpu();
  multiJobDrain();
  trace::Recorder::instance().start();
  multiJobDrain();
  const trace::Report report =
      trace::analyze(trace::Recorder::instance().stop());
  skelcl::terminate();
  EXPECT_EQ(report.schedulerJobs, 3u);
  EXPECT_EQ(report.maxConcurrentJobs, 3u);
}

TEST(AsyncScheduler, SyncRunsCarryNoSchedulerSpans) {
  ::setenv("SKELCL_ASYNC", "0", 1);
  const trace::Trace trace = tracedMultiJobRun();
  ::unsetenv("SKELCL_ASYNC");
  const trace::Report report = trace::analyze(trace);
  EXPECT_EQ(report.schedulerJobs, 0u);
  EXPECT_EQ(report.maxConcurrentJobs, 0u);
  EXPECT_EQ(report.schedQueueWaitNs, 0u);
}

} // namespace
