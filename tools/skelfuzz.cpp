// skelfuzz — differential schedule-fuzzing and fault-replay driver for
// the simulated SkelCL runtime.
//
//   skelfuzz [--seeds N] [--gpus G] [--scenario NAME]
//       Run each scenario once under the FIFO baseline and under N
//       seeded shuffle schedules (SKELCL_SCHEDULE_SEED=N). Any
//       difference in outputs, total kernel cycles, transferred bytes,
//       or per-engine busy time is an invariant violation.
//
//   skelfuzz --plan PLAN [--fault-seed S] [--rounds R] [--gpus G]
//       Arm the fault injector with PLAN (SKELCL_FAULT_PLAN grammar) and
//       run R rounds of a block-distributed map workload twice, catching
//       every typed failure. The two runs must produce identical failure
//       sequences and byte-identical fired-fault logs.
//
//   skelfuzz --tenants N [--seeds S] [--gpus G]
//       Differential multi-tenant schedule fuzzing: run every tenant's
//       jobs solo (single-tenant FIFO server) to get a baseline, then
//       run all N tenants through one shared JobServer under every
//       scheduling policy and S seeded shuffle schedules. Every job's
//       output must stay byte-identical to its solo run no matter which
//       policy interleaves the tenants or which schedule the devices
//       pick.
//
// Exit status: 0 when every invariant holds, 1 on a violation, 2 on
// usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "common/env.h"
#include "ocl/fault.h"
#include "service/service.h"
#include "skelcl/skelcl.h"
#include "trace/analysis.h"
#include "trace/recorder.h"

namespace {

using skelcl::Arguments;
using skelcl::Distribution;
using skelcl::Map;
using skelcl::Reduce;
using skelcl::Vector;
using skelcl::Zip;

int usage() {
  std::fprintf(
      stderr,
      "usage: skelfuzz [--seeds N] [--gpus G] [--scenario NAME]\n"
      "       skelfuzz --plan PLAN [--fault-seed S] [--rounds R]"
      " [--gpus G]\n"
      "       skelfuzz --tenants N [--seeds S] [--gpus G]\n"
      "scenarios: map-zip, block-map, combine, dot, stencil, csr\n");
  return 2;
}

/// Everything a schedule may not change about a scenario run.
struct Observation {
  std::vector<float> floats;
  std::vector<int> ints;
  std::uint64_t kernelCycles = 0;
  std::uint64_t h2dBytes = 0;
  std::uint64_t d2hBytes = 0;
  std::vector<std::uint64_t> engineBusyNs;

  friend bool operator==(const Observation& a, const Observation& b) {
    return a.floats == b.floats && a.ints == b.ints &&
           a.kernelCycles == b.kernelCycles && a.h2dBytes == b.h2dBytes &&
           a.d2hBytes == b.d2hBytes && a.engineBusyNs == b.engineBusyNs;
  }
};

struct Scenario {
  const char* name;
  std::function<void(Observation&)> body;
};

void mapZip(Observation& obs) {
  Map<float> scale("float fzscale(float x) { return 2.0f * x - 1.0f; }");
  Zip<float> mix("float fzmix(float a, float b) { return a * b + a; }");
  const std::size_t n = 5000;
  std::vector<float> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = float(i % 113) * 0.25f;
    b[i] = float(i % 41) - 3.0f;
  }
  Vector<float> va(a), vb(b);
  va.setDistribution(Distribution::Block);
  obs.floats = mix(scale(va), vb).hostData();
}

void blockMap(Observation& obs) {
  Map<float> heavy(
      "float fzheavy(float x) {"
      "  float acc = x;"
      "  for (int k = 0; k < 12; ++k) acc = acc * 1.0002f + 0.25f;"
      "  return acc;"
      "}");
  std::vector<float> data(1 << 15);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = float(i % 2048) * 0.0625f;
  }
  Vector<float> input(data);
  input.setDistribution(Distribution::Block);
  obs.floats = heavy(input).hostData();
}

void combine(Observation& obs) {
  Map<int, void> bump(
      "void fzbump(int idx, __global int* data) { data[idx] += idx + 1; }");
  Vector<int> indices = skelcl::indexVector(256);
  indices.setDistribution(Distribution::Block);
  Vector<int> data(256, 0);
  data.setDistribution(Distribution::Copy);
  Arguments args;
  args.push(data);
  bump(indices, args);
  data.dataOnDevicesModified();
  data.setDistribution(Distribution::Block,
                       "int fzadd(int a, int b) { return a + b; }");
  obs.ints = data.hostData();
}

void dot(Observation& obs) {
  Reduce<float> sum("float fzsum(float x, float y) { return x + y; }");
  Zip<float> mult("float fzmul(float x, float y) { return x * y; }");
  const std::size_t n = 4096;
  std::vector<float> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = float((i * 37 + 11) % 16);
    b[i] = float((i * 53 + 7) % 16);
  }
  Vector<float> va(a), vb(b);
  va.setDistribution(Distribution::Block);
  obs.floats.push_back(sum(mult(va, vb)).getValue());
}

void stencilScenario(Observation& obs) {
  // 2D heat step on a grid wide enough to spread, whose row count (211)
  // is divisible by no device count > 1, so every chunk boundary needs a
  // halo exchange.
  skelcl::Stencil<float> heat(
      "float fzheat(__global const float* w, uint st) {"
      "  return 0.25f * (w[1] + w[(int)st] + w[(int)st + 2]"
      "                  + w[2 * (int)st + 1]);"
      "}",
      skelcl::StencilShape{1, skelcl::Boundary::Clamp, 256});
  std::vector<float> grid(211 * 256);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = float((i * 2654435761u) % 1000) / 997.0f;
  }
  Vector<float> v(grid);
  for (int it = 0; it < 3; ++it) {
    v = heat(v);
  }
  obs.floats = v.hostData();
}

void csrScenario(Observation& obs) {
  // CSR with deliberately degenerate rows: empty rows, one full row, and
  // duplicate column entries, on a prime row count large enough to
  // replicate the operand.
  const std::size_t rows = 16411, cols = 31;
  std::vector<std::uint32_t> rowPtr = {0}, colIdx;
  std::vector<int> vals;
  for (std::size_t r = 0; r < rows; ++r) {
    if (r % 7 == 0) {
      // empty row
    } else if (r == 13) {
      for (std::uint32_t c = 0; c < cols; ++c) { // full row
        colIdx.push_back(c);
        vals.push_back(int(c) - 5);
      }
    } else {
      for (int k = 0; k < int(r % 5) + 1; ++k) {
        // every second entry duplicates the previous column
        const std::uint32_t c = (k % 2 == 1 && !colIdx.empty())
                                    ? colIdx.back()
                                    : std::uint32_t((r * 17 + k * 7) % cols);
        colIdx.push_back(c);
        vals.push_back(int((r + k) % 9) - 4);
      }
    }
    rowPtr.push_back(std::uint32_t(colIdx.size()));
  }
  skelcl::CsrMatrix<int> m(rows, cols, rowPtr, colIdx, vals);
  skelcl::SparseGather<int> spmv(
      "int fzspg(int a, int xj) { return a * xj; }",
      "int fzspc(int a, int b) { return a + b; }", "0");
  std::vector<int> x(cols);
  for (std::size_t i = 0; i < cols; ++i) {
    x[i] = int(i % 11) - 5;
  }
  Vector<int> xs(x);
  obs.ints = spmv(m, xs).hostData();
}

const Scenario kScenarios[] = {
    {"map-zip", mapZip},
    {"block-map", blockMap},
    {"combine", combine},
    {"dot", dot},
    {"stencil", stencilScenario},
    {"csr", csrScenario},
};

/// One init()..terminate() cycle under the given schedule; seed 0 is the
/// FIFO baseline.
Observation runOnce(const Scenario& scenario, std::uint32_t gpus,
                    std::uint64_t seed) {
  if (seed == 0) {
    ::unsetenv("SKELCL_SCHEDULE_SEED");
  } else {
    ::setenv("SKELCL_SCHEDULE_SEED", std::to_string(seed).c_str(), 1);
  }
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
  skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
  trace::Recorder::instance().start();

  Observation obs;
  scenario.body(obs);

  auto& runtime = skelcl::detail::Runtime::instance();
  for (std::size_t d = 0; d < skelcl::deviceCount(); ++d) {
    obs.kernelCycles += runtime.queue(d).cumulativeKernelCycles();
  }
  const trace::Report report =
      trace::analyze(trace::Recorder::instance().stop());
  obs.h2dBytes = report.h2dBytes;
  obs.d2hBytes = report.d2hBytes;
  for (const trace::DeviceReport& dev : report.devices) {
    for (std::size_t e = 0; e < ocl::kEngineCount; ++e) {
      obs.engineBusyNs.push_back(dev.engines[e].busyNs);
    }
  }
  skelcl::terminate();
  ::unsetenv("SKELCL_SCHEDULE_SEED");
  return obs;
}

int fuzzSchedules(std::uint64_t seeds, std::uint32_t gpus,
                  const std::string& only) {
  int violations = 0;
  bool matched = false;
  for (const Scenario& scenario : kScenarios) {
    if (!only.empty() && only != scenario.name) continue;
    matched = true;
    runOnce(scenario, gpus, 0); // warm the kernel cache
    const Observation baseline = runOnce(scenario, gpus, 0);
    std::uint64_t bad = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const Observation shuffled = runOnce(scenario, gpus, seed);
      if (!(shuffled == baseline)) {
        ++bad;
        std::fprintf(stderr,
                     "FAIL: %s diverges from the FIFO baseline under "
                     "shuffle seed %llu\n",
                     scenario.name, (unsigned long long)seed);
      }
    }
    std::printf("%-10s %llu seeds, %llu violation(s), "
                "kernel cycles %llu, h2d %llu B, d2h %llu B\n",
                scenario.name, (unsigned long long)seeds,
                (unsigned long long)bad,
                (unsigned long long)baseline.kernelCycles,
                (unsigned long long)baseline.h2dBytes,
                (unsigned long long)baseline.d2hBytes);
    violations += int(bad);
  }
  if (!matched) {
    std::fprintf(stderr, "unknown scenario '%s'\n", only.c_str());
    return 2;
  }
  return violations == 0 ? 0 : 1;
}

/// Fault-replay mode: the same (plan, seed, workload) must fail in the
/// same places with the same fired-fault log, run after run.
int replayFaults(const std::string& plan, std::uint64_t faultSeed,
                 std::uint64_t rounds, std::uint32_t gpus) {
  auto cycle = [&](std::vector<std::string>& failures,
                   std::vector<ocl::Fault>& log) {
    ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
    skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
    ocl::FaultInjector::instance().configure(plan, faultSeed);
    for (std::uint64_t round = 0; round < rounds; ++round) {
      try {
        Map<int> inc("int fzinc(int x) { return x + 1; }");
        std::vector<int> data(512);
        std::iota(data.begin(), data.end(), int(round));
        Vector<int> input(data);
        input.setDistribution(Distribution::Block);
        Vector<int> out = inc(input);
        (void)out.hostData();
        failures.push_back("round " + std::to_string(round) + ": ok");
      } catch (const ocl::ClError& e) {
        failures.push_back("round " + std::to_string(round) + ": " +
                           e.what());
      } catch (const common::Error& e) {
        failures.push_back("round " + std::to_string(round) + ": " +
                           e.what());
      }
    }
    log = ocl::FaultInjector::instance().firedLog();
    ocl::FaultInjector::instance().reset();
    skelcl::terminate();
  };

  std::vector<std::string> firstFailures, secondFailures;
  std::vector<ocl::Fault> firstLog, secondLog;
  cycle(firstFailures, firstLog);
  cycle(secondFailures, secondLog);

  for (const std::string& line : firstFailures) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("plan \"%s\" seed %llu: %zu fault(s) fired\n", plan.c_str(),
              (unsigned long long)faultSeed, firstLog.size());
  if (firstFailures != secondFailures || !(firstLog == secondLog)) {
    std::fprintf(stderr,
                 "FAIL: the second run did not replay the first "
                 "(%zu vs %zu faults)\n",
                 firstLog.size(), secondLog.size());
    return 1;
  }
  std::printf("replay: byte-identical across two runs\n");
  return 0;
}

// --- multi-tenant differential fuzzing ------------------------------------

namespace srv = skelcl::service;

/// One tenant job for the multi-tenant mode: a map/zip chain over data
/// seeded by (tenant, job), block-distributed so every device runs a
/// piece. The server keeps several tenants' jobs in flight at once —
/// exactly the interleaving under test.
srv::Job tenantJob(std::size_t tenant, std::size_t jobIndex,
                   std::vector<float>* sink) {
  srv::Job job;
  job.programKey = "fz-tenant";
  auto holder = std::make_shared<Vector<float>>();
  job.work = [=](srv::JobContext& ctx) {
    Map<float> scale(
        "float fztscale(float x) { return 1.5f * x - 2.0f; }");
    Zip<float> mix("float fztmix(float a, float b) { return a * b + b; }");
    const std::size_t n = 3000 + 128 * tenant;
    std::vector<float> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = float((i + 17 * tenant + 5 * jobIndex) % 101) * 0.125f;
      b[i] = float((i * 3 + tenant + jobIndex) % 53) - 11.0f;
    }
    Vector<float> va(std::move(a));
    Vector<float> vb(std::move(b));
    va.setDistribution(Distribution::Block);
    vb.setDistribution(Distribution::Block);
    *holder = mix(scale(va), vb);
    ctx.defer(*holder);
  };
  job.consume = [=] { *sink = holder->hostData(); };
  return job;
}

/// One init()..terminate() cycle running `tenants` tenants' jobs through
/// a shared server. tenantCount == 1 with tenant `only` is the solo
/// baseline. Returns outputs indexed [tenant][job].
std::vector<std::vector<std::vector<float>>>
runTenantCycle(std::size_t tenants, std::size_t jobsPerTenant,
               std::uint32_t gpus, std::uint64_t scheduleSeed,
               srv::Policy policy, std::size_t soloTenant) {
  if (scheduleSeed == 0) {
    ::unsetenv("SKELCL_SCHEDULE_SEED");
  } else {
    ::setenv("SKELCL_SCHEDULE_SEED", std::to_string(scheduleSeed).c_str(),
             1);
  }
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
  skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));

  const bool solo = soloTenant != ~std::size_t(0);
  std::vector<std::vector<std::vector<float>>> outputs(
      solo ? 1 : tenants,
      std::vector<std::vector<float>>(jobsPerTenant));
  {
    srv::ServiceConfig config;
    config.policy = policy;
    srv::JobServer server(config);
    std::vector<srv::Session*> sessions;
    const std::size_t first = solo ? soloTenant : 0;
    const std::size_t count = solo ? 1 : tenants;
    for (std::size_t t = 0; t < count; ++t) {
      // Distinct weights and priorities so fair-share and priority
      // actually reorder the interleaving.
      sessions.push_back(&server.openSession(
          "fz" + std::to_string(first + t), 1.0 + double(t % 3),
          int(t % 2)));
    }
    for (std::size_t j = 0; j < jobsPerTenant; ++j) {
      for (std::size_t t = 0; t < count; ++t) {
        sessions[t]->submit(
            tenantJob(first + t, j, &outputs[t][j]));
      }
    }
    server.pump();
  }
  skelcl::terminate();
  ::unsetenv("SKELCL_SCHEDULE_SEED");
  return outputs;
}

int fuzzTenants(std::size_t tenants, std::uint64_t seeds,
                std::uint32_t gpus) {
  const std::size_t jobsPerTenant = 3;
  // Solo baselines: each tenant alone on the machine, FIFO, FIFO
  // device schedule (one warm-up cycle populates the kernel cache).
  runTenantCycle(tenants, jobsPerTenant, gpus, 0, srv::Policy::Fifo, 0);
  std::vector<std::vector<std::vector<float>>> solo(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    solo[t] = std::move(runTenantCycle(tenants, jobsPerTenant, gpus, 0,
                                       srv::Policy::Fifo, t)[0]);
  }

  const srv::Policy policies[] = {srv::Policy::Fifo,
                                  srv::Policy::FairShare,
                                  srv::Policy::Priority};
  int violations = 0;
  for (const srv::Policy policy : policies) {
    std::uint64_t bad = 0;
    for (std::uint64_t seed = 0; seed <= seeds; ++seed) {
      const auto shared = runTenantCycle(tenants, jobsPerTenant, gpus,
                                         seed, policy, ~std::size_t(0));
      for (std::size_t t = 0; t < tenants; ++t) {
        for (std::size_t j = 0; j < jobsPerTenant; ++j) {
          if (shared[t][j] != solo[t][j]) {
            ++bad;
            std::fprintf(stderr,
                         "FAIL: tenant %zu job %zu diverges from its "
                         "solo run under policy %s, schedule seed %llu\n",
                         t, j, srv::policyName(policy),
                         (unsigned long long)seed);
          }
        }
      }
    }
    std::printf("policy %-8s %zu tenant(s) x %zu job(s), %llu "
                "schedule(s), %llu violation(s)\n",
                srv::policyName(policy), tenants, jobsPerTenant,
                (unsigned long long)(seeds + 1), (unsigned long long)bad);
    violations += int(bad);
  }
  return violations == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 8;
  std::uint64_t rounds = 6;
  std::uint64_t faultSeed = 0;
  std::uint32_t gpus = 4;
  std::size_t tenants = 0;
  std::string plan;
  std::string scenario;

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
    if (arg == "--seeds") {
      ok = count(seeds);
    } else if (arg == "--gpus") {
      ok = count(gpus);
    } else if (arg == "--scenario" && (v = next())) {
      scenario = v;
    } else if (arg == "--plan" && (v = next())) {
      plan = v;
    } else if (arg == "--fault-seed") {
      ok = count(faultSeed);
    } else if (arg == "--rounds") {
      ok = count(rounds);
    } else if (arg == "--tenants") {
      ok = count(tenants);
    } else {
      return usage();
    }
    if (!ok) return usage();
  }
  if (seeds == 0 || gpus == 0 || rounds == 0) return usage();

  try {
    if (!plan.empty()) {
      return replayFaults(plan, faultSeed, rounds, gpus);
    }
    if (tenants > 0) {
      // The tenant mode reuses --seeds as the shuffle-schedule count;
      // keep it small by default (3 policies x (seeds+1) cycles).
      return fuzzTenants(tenants, std::min<std::uint64_t>(seeds, 4),
                         gpus);
    }
    return fuzzSchedules(seeds, gpus, scenario);
  } catch (const common::Error& e) {
    std::fprintf(stderr, "skelfuzz: %s\n", e.what());
    return 1;
  }
}
