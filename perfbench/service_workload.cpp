// service_mix: four tenants on one skelcl::service::JobServer in pump()
// mode, so one host thread submits and dispatches. Each pass serves one
// seeded realization of a fixed job multiset twice:
//
//  * open loop: seeded Poisson arrivals (N arrivals placed uniformly at
//    random in a window of N / kArrivalRate virtual seconds, which is a
//    Poisson process conditioned on its count) give the job latencies;
//  * all at once: every job offered at the start gives the capacity.
//
// A realization draws the job order, tenants, devices, input sets, sizes
// and arrival times from the seed; successive passes use successive
// realizations, so the driver's pooled latencies sample several arrival
// patterns while every pass does the same amount of work.
//
// The job mix: Map∘Zip chains (fusable), dot products as Reduce∘Zip and
// through MapReduce, exclusive Scan, a block-distributed 2D Stencil with
// halo exchange, and SpMV through SparseGather. A seeded 1/16 of the
// jobs carries a user function no earlier job used, so the clc front
// end, the optimizer and the kernel-cache store run beside memo hits.
// Jobs are small (one work-group per launch), so host work per job, not
// VM interpretation, dominates the wall time. Every output is compared
// with a host oracle after the pass.
#include <algorithm>
#include <cmath>

#include "common/prng.h"
#include "service/service.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace svc = skelcl::service;

/// Offered load of the open-loop run, in jobs per virtual second. Seed 1
/// serves 17 100 jobs/s when the whole job set is offered at once, but
/// only 13 500 jobs/s with batching off; arrivals spread out in time are
/// rarely coalesced, so the open loop sees close to the unbatched cost.
/// 8 000 jobs/s is 47 % of the first and 59 % of the second: a loaded
/// but stable queue. Fixed here once; never derived at run time, so a
/// capacity change cannot change the workload.
constexpr double kArrivalRate = 8000.0;

/// Jobs per measured second on a 4-core host; at least kMinJobs so the
/// driver's five passes pool 1000 latencies, ten of them beyond p99.
constexpr double kJobsPerSecond = 400.0;
constexpr std::size_t kMinJobs = 1600;

/// Seeded realizations of the job set; pass k serves realization k % 8.
constexpr std::size_t kRealizations = 8;

constexpr std::size_t kTenants = 4;
constexpr std::size_t kGpus = 4;
constexpr std::size_t kPool = 16;       // distinct input sets
constexpr std::size_t kMaxLength = 256; // vector jobs: 192..256 elements
constexpr std::size_t kMinLength = 192;
constexpr std::size_t kGridWidth = 64; // stencil: 12..16 rows of 64
constexpr std::size_t kMaxGridRows = 16;
constexpr std::size_t kMinGridRows = 12;
constexpr std::size_t kSpmvCols = 256; // SpMV: 192..256 rows of 256 cols

enum class Kind { Chain, DotZip, DotMapReduce, Scan, Stencil, Spmv, Novel };
constexpr Kind kRegularKinds[] = {Kind::Chain, Kind::DotZip,
                                  Kind::DotMapReduce, Kind::Scan,
                                  Kind::Stencil, Kind::Spmv};

const char* kindKey(Kind kind) {
  switch (kind) {
    case Kind::Chain: return "mix-chain";
    case Kind::DotZip: return "mix-dot-zip";
    case Kind::DotMapReduce: return "mix-dot-mapreduce";
    case Kind::Scan: return "mix-scan";
    case Kind::Stencil: return "mix-stencil";
    case Kind::Spmv: return "mix-spmv";
    case Kind::Novel: break;
  }
  return "mix-novel";
}

struct IntPair {
  int a;
  int b;
};

struct JobSpec {
  Kind kind = Kind::Chain;
  std::size_t tenant = 0;
  std::size_t input = 0;         // pool index
  std::size_t gpu = 0;           // device of Single-distributed inputs
  std::size_t size = kMaxLength; // elements, or rows (Stencil, SpMV)
  float scale = 1.0f;            // novel jobs: x * scale + offset
  float offset = 0.0f;
};

/// What a job's consume() read back, or what its oracle says it should.
struct JobOut {
  std::vector<float> floats;
  std::vector<int> ints;

  bool operator==(const JobOut&) const = default;
};

struct Realization {
  std::vector<JobSpec> jobs;
  std::vector<double> arrivals; // sorted positions in the window, [0, 1)
  std::vector<JobOut> want;     // host oracle per job
};

struct Csr {
  std::vector<std::uint32_t> rowPtr;
  std::vector<std::uint32_t> colIdx;
  std::vector<float> values;
};

template <typename T>
std::vector<T> prefix(const std::vector<T>& v, std::size_t n) {
  return std::vector<T>(v.begin(), v.begin() + std::ptrdiff_t(n));
}

class ServiceMixWorkload : public Workload {
public:
  ServiceMixWorkload(std::uint64_t seed, double passSeconds) : seed_(seed) {
    jobs_ = std::max(kMinJobs,
                     std::size_t(std::lround(kJobsPerSecond * passSeconds)));
  }

  void setup() override {
    common::Xoshiro256 rng(seed_);
    makePools(rng);
    realizations_.assign(kRealizations, {});
    for (Realization& r : realizations_) {
      makeRealization(rng, r);
    }
    skelcl::registerType<IntPair>("IntPair",
                                  "typedef struct { int a; int b; } IntPair;");
    // First build of every regular program: one job of each kind.
    svc::JobServer server(config());
    svc::Session& session = server.openSession("setup");
    Timers scratch;
    for (Kind kind : kRegularKinds) {
      JobSpec s;
      s.kind = kind;
      s.size = kind == Kind::Stencil ? kMaxGridRows : kMaxLength;
      session.submit(makeJob(s, 0, std::make_shared<JobOut>(), scratch));
    }
    server.pump();
  }

  void computeOracles() override {
    for (Realization& r : realizations_) {
      r.want.clear();
      for (const JobSpec& s : r.jobs) {
        r.want.push_back(oracle(s));
      }
    }
  }

  void warmUp() override {
    svc::JobServer server(config());
    svc::Session& session = server.openSession("warm-up");
    Timers scratch;
    for (std::size_t j = 0; j < 64; ++j) {
      JobSpec s = realizations_[0].jobs[j];
      if (s.kind == Kind::Novel) {
        s.kind = Kind::Chain;
      }
      session.submit(makeJob(s, 0, std::make_shared<JobOut>(), scratch));
    }
    server.pump();
  }

  void run(Pass& pass) override {
    outputs_.clear();
    realization_ = std::size_t(pass.index) % kRealizations;
    const Realization& r = realizations_[realization_];
    // Open loop at the fixed offered rate.
    const std::uint64_t t0 = ocl::hostTimeNs();
    const double windowNs = double(jobs_) / kArrivalRate * 1e9;
    std::vector<svc::JobHandle> handles =
        serve(pass, 2 * pass.index, [&](std::size_t j) {
          return t0 + std::uint64_t(r.arrivals[j] * windowNs);
        });
    for (const svc::JobHandle& h : handles) {
      if (h.valid() && !h.failed()) {
        pass.latencyNs.push_back(h.stats().latencyNs());
      }
    }
    // The same job set offered all at once.
    const std::uint64_t t1 = ocl::hostTimeNs();
    serve(pass, 2 * pass.index + 1, [](std::size_t) { return 0; });
    const std::uint64_t t2 = ocl::hostTimeNs();
    pass.capacityOpsPerS = double(jobs_) / (double(t2 - t1) * 1e-9);
  }

  void check(Pass& pass) override {
    const Realization& r = realizations_[realization_];
    for (std::size_t k = 0; k < outputs_.size(); ++k) {
      const std::size_t j = k % jobs_;
      if (outputs_[k] != nullptr && !(*outputs_[k] == r.want[j])) {
        std::fprintf(stderr, "service_mix job %zu (%s) differs from the "
                             "host oracle\n", j, kindKey(r.jobs[j].kind));
        ++pass.failed;
      }
    }
  }

private:
  static svc::ServiceConfig config() {
    svc::ServiceConfig c;
    c.policy = svc::Policy::FairShare;
    c.batching = true;
    c.batchLimit = 8;
    c.queueCap = 1 << 20; // admission control is not under test
    return c;
  }

  void makePools(common::Xoshiro256& rng) {
    floatA_.assign(kPool, {});
    floatB_.assign(kPool, {});
    intA_.assign(kPool, {});
    intB_.assign(kPool, {});
    grids_.assign(kPool, {});
    spmvX_.assign(kPool, {});
    csr_.assign(kPool, {});
    for (std::size_t p = 0; p < kPool; ++p) {
      for (std::size_t i = 0; i < kMaxLength; ++i) {
        floatA_[p].push_back(float(rng.nextBelow(64)) * 0.25f);
        floatB_[p].push_back(float(rng.nextBelow(32)) * 0.5f);
        intA_[p].push_back(int(rng.nextBelow(21)) - 10);
        intB_[p].push_back(int(rng.nextBelow(21)) - 10);
      }
      for (std::size_t i = 0; i < kMaxGridRows * kGridWidth; ++i) {
        grids_[p].push_back(int(rng.nextBelow(201)) - 100);
      }
      Csr& m = csr_[p];
      m.rowPtr.push_back(0);
      for (std::size_t r = 0; r < kMaxLength; ++r) {
        const std::size_t nnz = 1 + rng.nextBelow(15);
        for (std::size_t k = 0; k < nnz; ++k) {
          m.colIdx.push_back(std::uint32_t(rng.nextBelow(kSpmvCols)));
          m.values.push_back(float(rng.nextBelow(16)) * 0.125f);
        }
        m.rowPtr.push_back(std::uint32_t(m.colIdx.size()));
      }
      for (std::size_t i = 0; i < kSpmvCols; ++i) {
        spmvX_[p].push_back(float(rng.nextBelow(32)) * 0.25f);
      }
    }
  }

  /// Exact kind counts (1/16 novel, the rest split evenly) in a seeded
  /// order, with seeded tenants, devices, inputs, sizes and arrivals.
  void makeRealization(common::Xoshiro256& rng, Realization& r) const {
    std::vector<Kind> kinds(jobs_ / 16, Kind::Novel);
    for (std::size_t j = 0; kinds.size() < jobs_; ++j) {
      kinds.push_back(kRegularKinds[j % std::size(kRegularKinds)]);
    }
    for (std::size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.nextBelow(i)]);
    }
    for (Kind kind : kinds) {
      JobSpec s;
      s.kind = kind;
      s.tenant = rng.nextBelow(kTenants);
      s.input = rng.nextBelow(kPool);
      s.gpu = rng.nextBelow(kGpus);
      s.size = kind == Kind::Stencil
                   ? kMinGridRows +
                         rng.nextBelow(kMaxGridRows - kMinGridRows + 1)
                   : kMinLength + rng.nextBelow(kMaxLength - kMinLength + 1);
      s.scale = 0.5f + float(rng.nextBelow(64)) * 0.0625f;
      s.offset = float(rng.nextBelow(16)) * 0.25f;
      r.jobs.push_back(s);
    }
    for (std::size_t j = 0; j < jobs_; ++j) {
      r.arrivals.push_back(rng.nextDouble());
    }
    std::sort(r.arrivals.begin(), r.arrivals.end());
  }

  JobOut oracle(const JobSpec& s) const {
    JobOut out;
    const std::size_t n = s.size;
    switch (s.kind) {
      case Kind::Chain:
        for (std::size_t i = 0; i < n; ++i) {
          const float t = floatA_[s.input][i] * floatB_[s.input][i];
          out.floats.push_back(0.5f * t + 1.0f);
        }
        break;
      case Kind::DotZip:
      case Kind::DotMapReduce: {
        int dot = 0;
        for (std::size_t i = 0; i < n; ++i) {
          dot += intA_[s.input][i] * intB_[s.input][i];
        }
        out.ints = {dot};
        break;
      }
      case Kind::Scan: {
        int running = 0;
        for (std::size_t i = 0; i < n; ++i) {
          out.ints.push_back(running);
          running += intA_[s.input][i];
        }
        break;
      }
      case Kind::Stencil:
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t c = 0; c < kGridWidth; ++c) {
            int sum = 0;
            for (long dr = -1; dr <= 1; ++dr) {
              for (long dc = -1; dc <= 1; ++dc) {
                const auto rr = std::size_t(
                    std::clamp<long>(long(r) + dr, 0, long(n) - 1));
                const auto cc = std::size_t(std::clamp<long>(
                    long(c) + dc, 0, long(kGridWidth) - 1));
                sum = sum + grids_[s.input][rr * kGridWidth + cc];
              }
            }
            out.ints.push_back(sum);
          }
        }
        break;
      case Kind::Spmv: {
        const Csr& m = csr_[s.input];
        for (std::size_t r = 0; r < n; ++r) {
          float acc = 0.0f;
          for (std::uint32_t k = m.rowPtr[r]; k < m.rowPtr[r + 1]; ++k) {
            acc = acc + m.values[k] * spmvX_[s.input][m.colIdx[k]];
          }
          out.floats.push_back(acc);
        }
        break;
      }
      case Kind::Novel:
        for (std::size_t i = 0; i < n; ++i) {
          out.floats.push_back(floatA_[s.input][i] * s.scale + s.offset);
        }
        break;
    }
    return out;
  }

  /// Submits every job of the current realization (arrival times from
  /// `arrivalNs`), pumps the server dry, records outputs, failures and
  /// service counters.
  template <typename ArrivalFn>
  std::vector<svc::JobHandle> serve(Pass& pass, int round,
                                    ArrivalFn arrivalNs) {
    const Realization& r = realizations_[realization_];
    svc::JobServer server(config());
    std::vector<svc::Session*> sessions;
    for (std::size_t t = 0; t < kTenants; ++t) {
      sessions.push_back(&server.openSession("tenant-" + std::to_string(t)));
    }
    const std::size_t base = outputs_.size();
    std::vector<svc::JobHandle> handles(jobs_);
    for (std::size_t j = 0; j < jobs_; ++j) {
      auto out = std::make_shared<JobOut>();
      svc::Job job = makeJob(r.jobs[j], round, out, pass.timers);
      job.arrivalNs = arrivalNs(j);
      outputs_.push_back(out);
      ++pass.attempted;
      const auto start = std::chrono::steady_clock::now();
      try {
        handles[j] = sessions[r.jobs[j].tenant]->submit(std::move(job));
      } catch (const svc::ServiceOverload&) {
        ++pass.service.rejected;
      }
      pass.timers.submitS += secondsSince(start);
      ++pass.timers.submits;
    }
    const auto start = std::chrono::steady_clock::now();
    server.pump();
    pass.timers.pumpS += secondsSince(start);

    for (std::size_t j = 0; j < jobs_; ++j) {
      if (!handles[j].valid() || handles[j].failed()) {
        outputs_[base + j] = nullptr;
        ++pass.failed;
        if (handles[j].valid()) {
          try {
            handles[j].rethrow();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "service_mix job %zu failed: %s\n", j,
                         e.what());
          }
        }
      }
    }
    const svc::JobServer::ServerStats st = server.serverStats();
    pass.service.batches += st.batches;
    pass.service.coalescedJobs += st.coalescedJobs;
    pass.service.maxBatch = std::max(pass.service.maxBatch, st.maxBatch);
    for (const auto& t : server.tenantStats()) {
      pass.service.queueWaitNs += t.queueWaitNs;
      pass.service.failed += t.failed;
    }
    return handles;
  }

  template <typename T>
  static skelcl::Vector<T> onGpu(std::vector<T> data, std::size_t gpu) {
    skelcl::Vector<T> v(std::move(data));
    v.setDistribution(skelcl::Distribution::Single, gpu);
    return v;
  }

  /// The job of `s`. Novel jobs name their function after `round` and a
  /// running count, so every round compiles it afresh.
  svc::Job makeJob(const JobSpec& s, int round,
                   const std::shared_ptr<JobOut>& out, Timers& timers) {
    svc::Job job;
    job.programKey = kindKey(s.kind);
    Timers* t = &timers;
    switch (s.kind) {
      case Kind::Chain: {
        auto result = std::make_shared<skelcl::Vector<float>>();
        job.work = [this, s, t, result](svc::JobContext& ctx) {
          skelcl::Zip<float> mult(
              "float pb_mul(float x, float y) { return x * y; }");
          skelcl::Map<float> scale(
              "float pb_scale(float x) { return 0.5f * x + 1.0f; }");
          auto va = onGpu(prefix(floatA_[s.input], s.size), s.gpu);
          auto vb = onGpu(prefix(floatB_[s.input], s.size), s.gpu);
          auto prod = timedCall(*t, [&] { return mult(va, vb); });
          *result = timedCall(*t, [&] { return scale(prod); });
          ctx.defer(*result);
        };
        job.consume = [t, result, out] {
          out->floats = timedHostData(*t, *result);
        };
        break;
      }
      case Kind::DotZip: {
        auto result = std::make_shared<skelcl::Scalar<int>>();
        job.work = [this, s, t, result](svc::JobContext&) {
          skelcl::Zip<int> mult(
              "int pb_imul(int x, int y) { return x * y; }");
          skelcl::Reduce<int> sum(
              "int pb_iadd(int x, int y) { return x + y; }");
          auto va = onGpu(prefix(intA_[s.input], s.size), s.gpu);
          auto vb = onGpu(prefix(intB_[s.input], s.size), s.gpu);
          auto prod = timedCall(*t, [&] { return mult(va, vb); });
          *result = timedCall(*t, [&] { return sum(prod); });
        };
        job.consume = [t, result, out] {
          out->ints = {timedValue(*t, *result)};
        };
        break;
      }
      case Kind::DotMapReduce: {
        auto result = std::make_shared<skelcl::Scalar<int>>();
        job.work = [this, s, t, result](svc::JobContext&) {
          skelcl::MapReduce<IntPair, int> dot(
              "int pb_pairmul(IntPair p) { return p.a * p.b; }",
              "int pb_iadd(int x, int y) { return x + y; }");
          std::vector<IntPair> pairs(s.size);
          for (std::size_t i = 0; i < s.size; ++i) {
            pairs[i] = IntPair{intA_[s.input][i], intB_[s.input][i]};
          }
          auto vp = onGpu(std::move(pairs), s.gpu);
          *result = timedCall(*t, [&] { return dot(vp); });
        };
        job.consume = [t, result, out] {
          out->ints = {timedValue(*t, *result)};
        };
        break;
      }
      case Kind::Scan: {
        auto result = std::make_shared<skelcl::Vector<int>>();
        job.work = [this, s, t, result](svc::JobContext& ctx) {
          skelcl::Scan<int> exclusive(
              "int pb_iadd(int x, int y) { return x + y; }");
          auto va = onGpu(prefix(intA_[s.input], s.size), s.gpu);
          *result = timedCall(*t, [&] { return exclusive(va); });
          ctx.defer(*result);
        };
        job.consume = [t, result, out] {
          out->ints = timedHostData(*t, *result);
        };
        break;
      }
      case Kind::Stencil: {
        auto result = std::make_shared<skelcl::Vector<int>>();
        job.work = [this, s, t, result](svc::JobContext& ctx) {
          skelcl::Stencil<int> box(
              "int pb_box(__global const int* w, uint st) {\n"
              "  int s = 0;\n"
              "  for (int r = 0; r < 3; ++r) {\n"
              "    for (int c = 0; c < 3; ++c) {\n"
              "      s = s + w[r * (int)st + c];\n"
              "    }\n"
              "  }\n"
              "  return s;\n"
              "}\n",
              skelcl::StencilShape{1, skelcl::Boundary::Clamp, kGridWidth});
          skelcl::Vector<int> grid(
              prefix(grids_[s.input], s.size * kGridWidth));
          grid.setDistribution(skelcl::Distribution::Block);
          *result = timedCall(*t, [&] { return box(grid); });
          ctx.defer(*result);
        };
        job.consume = [t, result, out] {
          out->ints = timedHostData(*t, *result);
        };
        break;
      }
      case Kind::Spmv: {
        auto result = std::make_shared<skelcl::Vector<float>>();
        job.work = [this, s, t, result](svc::JobContext& ctx) {
          const Csr& m = csr_[s.input];
          const std::size_t nnz = m.rowPtr[s.size];
          skelcl::CsrMatrix<float> matrix(
              s.size, kSpmvCols, prefix(m.rowPtr, s.size + 1),
              prefix(m.colIdx, nnz), prefix(m.values, nnz));
          skelcl::SparseGather<float> spmv(
              "float pb_gather(float w, float x) { return w * x; }",
              "float pb_fadd(float a, float b) { return a + b; }", "0.0f");
          skelcl::Vector<float> x(spmvX_[s.input]);
          *result = timedCall(*t, [&] { return spmv(matrix, x); });
          ctx.defer(*result);
        };
        job.consume = [t, result, out] {
          out->floats = timedHostData(*t, *result);
        };
        break;
      }
      case Kind::Novel: {
        const std::string name = "pb_novel_r" + std::to_string(round) +
                                 "_" + std::to_string(novelCount_++);
        job.programKey = name;
        char source[256];
        std::snprintf(source, sizeof source,
                      "float %s(float x) { return x * %.9gf + %.9gf; }",
                      name.c_str(), double(s.scale), double(s.offset));
        auto result = std::make_shared<skelcl::Vector<float>>();
        job.work = [this, s, t, result,
                    src = std::string(source)](svc::JobContext& ctx) {
          skelcl::Map<float> fresh(src);
          auto va = onGpu(prefix(floatA_[s.input], s.size), s.gpu);
          *result = timedCall(*t, [&] { return fresh(va); });
          ctx.defer(*result);
        };
        job.consume = [t, result, out] {
          out->floats = timedHostData(*t, *result);
        };
        break;
      }
    }
    return job;
  }

  std::uint64_t seed_;
  std::size_t jobs_ = 0;
  std::size_t novelCount_ = 0;
  std::vector<std::vector<float>> floatA_, floatB_, spmvX_;
  std::vector<std::vector<int>> intA_, intB_, grids_;
  std::vector<Csr> csr_;
  std::vector<Realization> realizations_;
  std::size_t realization_ = 0; // served by the current pass
  std::vector<std::shared_ptr<JobOut>> outputs_;
};

} // namespace

std::unique_ptr<Workload> makeServiceMix(std::uint64_t seed,
                                         double passSeconds) {
  return std::make_unique<ServiceMixWorkload>(seed, passSeconds);
}

} // namespace perfbench
