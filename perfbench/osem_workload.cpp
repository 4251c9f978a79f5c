// osem: SkelCL list-mode OSEM (paper Listing 4) on the 4 GPUs over one
// seeded bench-size dataset, reconstructed repeatedly. Each
// reconstruction must stay within relativeRmse < 1e-3 of
// osem::reconstructSequential.
//
// The reconstruction below follows osem::reconstructSkelCl step by step
// (same kernel source, same distributions, same work-group size); it is
// spelled out here so the benchmark can time its skeleton calls and the
// final consumption point on their own.
//
// Latency samples are per subset, the unit the paper reports: the virtual
// time between consecutive starts of the subset loop (the last one ends
// at the final download). Each iteration blocks once, when the copy
// distribution of the reconstruction image waits for the previous
// subset's update, so each interval spans about one subset's work.
#include <algorithm>
#include <cmath>

#include "osem/osem.h"
#include "osem_skelcl_source.h"
#include "workload.h"

namespace perfbench {

namespace {

/// Reconstructions per measured second on a 4-core host (one ~1.4 s).
constexpr double kReconstructionsPerSecond = 0.7;

class OsemWorkload : public Workload {
public:
  OsemWorkload(std::uint64_t seed, double passSeconds)
      : reconstructions_(std::max<long>(
            1, std::lround(kReconstructionsPerSecond * passSeconds))) {
    params_ = osem::OsemParams::benchSize();
    params_.seed = seed;
  }

  void setup() override {
    dataset_ = osem::generateDataset(params_);
    skelcl::registerType<osem::Event>(
        "Event",
        "typedef struct { float x1; float y1; float z1;"
        " float x2; float y2; float z2; } Event;");
    skelcl::registerType<osem::VolumeDims>(
        "OsemDims",
        "typedef struct { int nx; int ny; int nz; float voxelSize; }"
        " OsemDims;");
    computeC_ = std::make_unique<skelcl::Map<int, void>>(kOsemSkelClSource);
    computeC_->setWorkGroupSize(64);
    update_ = std::make_unique<skelcl::Zip<float>>(
        "float update_f(float f, float c) {"
        " if (c > 0.0f) { return f * c; } return f; }");
    // First build of every program: one subset of a few events.
    osem::Dataset tiny = dataset_;
    tiny.events.resize(256);
    tiny.numSubsets = 1;
    Timers scratch;
    reconstruct(tiny, scratch);
  }

  void computeOracles() override {
    reference_ = osem::reconstructSequential(dataset_).image;
  }

  void warmUp() override {
    osem::Dataset half = dataset_;
    half.events.resize(dataset_.subsetEnd(0));
    half.numSubsets = 1;
    Timers scratch;
    reconstruct(half, scratch);
  }

  void run(Pass& pass) override {
    images_.clear();
    for (long r = 0; r < reconstructions_; ++r) {
      ++pass.attempted;
      std::vector<std::uint64_t> marks;
      try {
        images_.push_back(reconstruct(dataset_, pass.timers, &marks));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "osem reconstruction %ld failed: %s\n", r,
                     e.what());
        images_.emplace_back();
        continue;
      }
      for (std::size_t i = 1; i < marks.size(); ++i) {
        pass.latencyNs.push_back(marks[i] - marks[i - 1]);
      }
    }
  }

  void check(Pass& pass) override {
    for (std::size_t r = 0; r < images_.size(); ++r) {
      const double rmse =
          images_[r].size() == reference_.size()
              ? osem::relativeRmse(reference_, images_[r])
              : INFINITY;
      if (!(rmse < 1e-3)) {
        std::fprintf(stderr, "osem reconstruction %zu: relative RMSE %g "
                             "vs the sequential reference\n", r, rmse);
        ++pass.failed;
      }
    }
  }

private:
  /// `marks` (optional) receives the virtual time at each subset start
  /// and after the final download.
  std::vector<float> reconstruct(const osem::Dataset& dataset,
                                 Timers& timers,
                                 std::vector<std::uint64_t>* marks = nullptr) {
    const std::int32_t workersPerDevice = 512;
    const std::int32_t numWorkers =
        workersPerDevice * std::int32_t(skelcl::deviceCount());
    const char* addSource = "float add(float x, float y) { return x + y; }";

    skelcl::Vector<float> f(dataset.vol.voxels(), 1.0f);
    skelcl::Vector<float> c(dataset.vol.voxels(), 0.0f);
    skelcl::Vector<int> index =
        skelcl::indexVector(std::size_t(numWorkers));
    index.setDistribution(skelcl::Distribution::Block);

    for (std::int32_t iter = 0; iter < dataset.numIterations; ++iter) {
      for (std::int32_t l = 0; l < dataset.numSubsets; ++l) {
        if (marks != nullptr) {
          marks->push_back(ocl::hostTimeNs());
        }
        skelcl::Vector<osem::Event> events(
            dataset.events.data() + dataset.subsetBegin(l),
            dataset.subsetEnd(l) - dataset.subsetBegin(l));
        events.setDistribution(skelcl::Distribution::Block);
        f.setDistribution(skelcl::Distribution::Copy);
        c.fill(0.0f);
        c.setDistribution(skelcl::Distribution::Copy);
        skelcl::Arguments arguments;
        arguments.push(events);
        arguments.pushSizeOf(events);
        arguments.push(workersPerDevice);
        arguments.push(f);
        arguments.push(c);
        arguments.push(dataset.vol);
        timedCall(timers, [&] { (*computeC_)(index, arguments); });
        c.dataOnDevicesModified();
        c.setDistribution(skelcl::Distribution::Block, addSource);
        f.setDistribution(skelcl::Distribution::Block);
        timedCall(timers, [&] { (*update_)(f, c, f); });
      }
    }
    std::vector<float> image = timedHostData(timers, f);
    if (marks != nullptr) {
      marks->push_back(ocl::hostTimeNs());
    }
    return image;
  }

  osem::OsemParams params_;
  long reconstructions_;
  osem::Dataset dataset_;
  std::unique_ptr<skelcl::Map<int, void>> computeC_;
  std::unique_ptr<skelcl::Zip<float>> update_;
  std::vector<float> reference_;
  std::vector<std::vector<float>> images_;
};

} // namespace

std::unique_ptr<Workload> makeOsem(std::uint64_t seed, double passSeconds) {
  return std::make_unique<OsemWorkload>(seed, passSeconds);
}

} // namespace perfbench
