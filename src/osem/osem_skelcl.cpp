// SkelCL list-mode OSEM — the paper's Listing 4.
//
// The events of a subset, the error image and the reconstruction image
// are SkelCL Vectors; distributions do all the multi-GPU work: events
// are block-distributed, both images are copied to all devices for the
// error-image computation, the copies of the error image are folded
// element-wise into a block distribution, and the update runs as a Zip
// over the block-distributed images.
#include "osem/osem.h"

#include "common/stopwatch.h"
#include "osem_skelcl_source.h"
#include "skelcl/skelcl.h"

namespace osem {

OsemResult reconstructSkelCl(const Dataset& dataset) {
  common::Stopwatch wall;
  const auto virtualStart = ocl::hostTimeNs();

  skelcl::registerType<Event>(
      "Event",
      "typedef struct { float x1; float y1; float z1;"
      " float x2; float y2; float z2; } Event;");
  skelcl::registerType<VolumeDims>(
      "OsemDims",
      "typedef struct { int nx; int ny; int nz; float voxelSize; }"
      " OsemDims;");

  skelcl::Map<int, void> computeC(kOsemSkelClSource);
  // Hand-tuned work-group size (the paper notes this is "sometimes
  // reasonable"): 64 matches the CUDA/OpenCL baselines' launch geometry
  // (eight groups of 64 over the 512 map indices), so Figure 2 compares
  // the same launch. The launch-sized default would pick 32.
  computeC.setWorkGroupSize(64);
  skelcl::Zip<float> update(
      "float update_f(float f, float c) {"
      " if (c > 0.0f) { return f * c; } return f; }");
  const char* addSource = "float add(float x, float y) { return x + y; }";

  const std::size_t devices = skelcl::deviceCount();
  // The paper maps over a vector of 512 indices, bounding the number of
  // concurrently computed paths per device ("we must not compute too
  // many paths in parallel to avoid excessive memory consumption").
  // That bound is per device: each GPU runs 512 workers over its block
  // of the events.
  const std::int32_t workersPerDevice = 512;
  const std::int32_t numWorkers =
      workersPerDevice * std::int32_t(devices);

  skelcl::Vector<float> f(dataset.vol.voxels(), 1.0f);
  skelcl::Vector<float> c(dataset.vol.voxels(), 0.0f);
  skelcl::Vector<int> index = skelcl::indexVector(std::size_t(numWorkers));
  index.setDistribution(skelcl::Distribution::Block);

  for (std::int32_t iter = 0; iter < dataset.numIterations; ++iter) {
    for (std::int32_t l = 0; l < dataset.numSubsets; ++l) {
      // "read events from file"
      skelcl::Vector<Event> events(
          dataset.events.data() + dataset.subsetBegin(l),
          dataset.subsetEnd(l) - dataset.subsetBegin(l));
      // distribute events to devices
      events.setDistribution(skelcl::Distribution::Block);
      // copy reconstruction (f) and error image (c) to all devices
      f.setDistribution(skelcl::Distribution::Copy);
      c.fill(0.0f);
      c.setDistribution(skelcl::Distribution::Copy);
      // prepare arguments of the error-image computation
      skelcl::Arguments arguments;
      arguments.push(events);
      arguments.pushSizeOf(events);
      arguments.push(workersPerDevice);
      arguments.push(f);
      arguments.push(c);
      arguments.push(dataset.vol);
      // compute error image (map skeleton)
      computeC(index, arguments);
      // signal modification of the error image
      c.dataOnDevicesModified();
      // reduce (element-wise add) all copies of the error image;
      // re-distribute across the devices after the reduction
      c.setDistribution(skelcl::Distribution::Block, addSource);
      // distribute the reconstruction image across all devices
      f.setDistribution(skelcl::Distribution::Block);
      // update reconstruction image (zip skeleton)
      update(f, c, f);
    }
  }

  OsemResult result;
  result.image = f.hostData();
  result.virtualSeconds = double(ocl::hostTimeNs() - virtualStart) * 1e-9;
  result.wallSeconds = wall.elapsedSeconds();
  result.virtualSecondsPerSubset =
      result.virtualSeconds /
      double(dataset.numSubsets * dataset.numIterations);
  return result;
}

} // namespace osem
