// Bytecode VM: executes a compiled kernel over an OpenCL ND-range.
//
// Work-groups are independent and may run in parallel on a host thread
// pool; work-items inside one group run cooperatively on one thread and
// are scheduled round-robin between barriers, which gives real OpenCL
// barrier semantics (all items reach the barrier before any proceeds).
//
// Every instruction is accounted: the per-item cycle counts and global
// memory traffic feed the ocl timing model that converts a launch into
// virtual device time (see ocl/timing_model.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "clc/bytecode.h"
#include "common/error.h"
#include "common/thread_pool.h"

namespace clc {

/// Raised when a kernel traps: out-of-bounds access, misaligned atomic,
/// division fault, barrier divergence...
class TrapError : public common::Error {
public:
  explicit TrapError(const std::string& what) : common::Error(what) {}
};

/// A region of host memory standing in for one __global allocation.
struct Segment {
  std::uint8_t* base = nullptr;
  std::size_t size = 0;
};

/// One kernel argument as supplied by the host API.
struct KernelArgValue {
  enum class Kind { Buffer, Local, Scalar, Struct };
  Kind kind = Kind::Scalar;
  std::uint32_t segmentIndex = 0;     // Buffer: index into the segment table
  std::uint64_t scalar = 0;           // Scalar: canonical 64-bit slot
  std::vector<std::uint8_t> bytes;    // Struct: by-value contents
  std::uint64_t localSize = 0;        // Local: per-group byte count
};

struct NDRange {
  std::uint32_t dims = 1;
  std::size_t globalSize[3] = {1, 1, 1};
  std::size_t localSize[3] = {1, 1, 1};
  // Global work offset (clEnqueueNDRangeKernel's global_work_offset):
  // added to get_global_id; group ids stay launch-local, matching OpenCL.
  // Lets a host split one logical launch into sub-launches that pipeline
  // against split transfers without touching kernel source.
  std::size_t globalOffset[3] = {0, 0, 0};

  std::size_t totalLocal() const noexcept {
    return localSize[0] * localSize[1] * localSize[2];
  }
};

/// Cost profile of one executed work-group.
struct GroupCost {
  std::uint64_t sumCycles = 0; // total cycles over all items in the group
  std::uint64_t maxCycles = 0; // slowest single item (critical path)
};

/// Aggregate profile of a kernel launch, consumed by the timing model.
struct LaunchStats {
  std::uint64_t instructions = 0;
  std::uint64_t totalCycles = 0;
  std::uint64_t globalBytesRead = 0;
  std::uint64_t globalBytesWritten = 0;
  std::uint64_t atomicOps = 0;
  std::uint64_t barrierWaits = 0;
  std::vector<GroupCost> groups;
};

/// Executes `kernelName` over `range`.
///
/// * `segments` is the launch's global-memory table; Buffer arguments and
///   every global pointer in flight index into it.
/// * `pool` runs work-groups in parallel when non-null, unless the whole
///   launch has at most 256 work items: waking pool workers for a few
///   short groups costs more host time than they save, so those run on
///   the calling thread.
///
/// OpenCL 1.1 rules are enforced: the global size must be divisible by the
/// work-group size in every dimension. The program must have passed
/// clc::verify (compile, optimize and deserializeProgram all run it).
/// Throws TrapError on kernel faults and common::InvalidArgument on
/// launch-configuration errors or an unverified program.
LaunchStats executeKernel(const Program& program,
                          const std::string& kernelName, const NDRange& range,
                          const std::vector<KernelArgValue>& args,
                          const std::vector<Segment>& segments,
                          common::ThreadPool* pool);

} // namespace clc
