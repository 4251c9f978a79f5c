// Programs and kernels.
//
// As in real OpenCL, programs are created from *source strings* and built
// at runtime (clCreateProgramWithSource / clBuildProgram), or created from
// a previously exported binary (clCreateProgramWithBinary) — the fast path
// behind SkelCL's on-disk kernel cache.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "clc/bytecode.h"
#include "clc/eval.h"
#include "clc/opt.h"
#include "clc/vm.h"
#include "ocl/buffer.h"

namespace ocl {

/// Thrown by Program::build on compile errors; carries the build log a
/// real driver would return for CL_PROGRAM_BUILD_LOG.
class BuildError : public common::Error {
public:
  BuildError(const std::string& what, std::string log)
      : common::Error(what), log_(std::move(log)) {}

  const std::string& log() const noexcept { return log_; }

private:
  std::string log_;
};

class Kernel;

/// A host arithmetic type a kernel scalar argument can be given as.
template <typename T>
concept HostScalar = std::is_arithmetic_v<T> && sizeof(T) <= 8;

/// The clc type tag of a host scalar type.
template <HostScalar T>
constexpr clc::TypeTag scalarTag() noexcept {
  constexpr bool s = std::is_signed_v<T>;
  if constexpr (std::is_floating_point_v<T>) {
    return sizeof(T) == 4 ? clc::TypeTag::F32 : clc::TypeTag::F64;
  } else if constexpr (sizeof(T) == 1) {
    return s ? clc::TypeTag::I8 : clc::TypeTag::U8;
  } else if constexpr (sizeof(T) == 2) {
    return s ? clc::TypeTag::I16 : clc::TypeTag::U16;
  } else if constexpr (sizeof(T) == 4) {
    return s ? clc::TypeTag::I32 : clc::TypeTag::U32;
  } else {
    return s ? clc::TypeTag::I64 : clc::TypeTag::U64;
  }
}

/// `value` as the canonical clc slot of scalarTag<T>(): float bits,
/// sign-extended signed integers, zero-extended unsigned ones.
template <HostScalar T>
std::uint64_t scalarSlot(T value) noexcept {
  if constexpr (std::is_same_v<T, float>) {
    return clc::eval::f32Slot(value);
  } else if constexpr (std::is_floating_point_v<T>) {
    return clc::eval::f64Slot(value);
  } else if constexpr (std::is_signed_v<T>) {
    return std::uint64_t(std::int64_t(value));
  } else {
    return std::uint64_t(value);
  }
}

/// The optimization level `-cl-opt-level=0|2` selects in an
/// OpenCL-style build-options string (O2 when absent). Unknown tokens
/// are ignored, as real drivers do; a malformed level throws BuildError.
clc::OptLevel optLevelOf(const std::string& options);

class Program {
public:
  Program() = default;

  /// clCreateProgramWithSource analogue.
  static Program fromSource(std::string source);

  /// clCreateProgramWithBinary analogue; throws common::DeserializeError
  /// for corrupted binaries.
  static Program fromBinary(const std::vector<std::uint8_t>& binary);

  bool valid() const noexcept { return impl_ != nullptr; }

  /// Compiles the source (no-op for binary programs) at the optimization
  /// level `options` selects (optLevelOf). Throws BuildError.
  void build(const std::string& options = "");

  bool isBuilt() const;
  const std::string& buildLog() const;
  const std::string& source() const;

  /// Exports the compiled binary (clGetProgramInfo CL_PROGRAM_BINARIES).
  std::vector<std::uint8_t> binary() const;

  /// Creates a kernel handle; throws common::InvalidArgument for unknown
  /// kernel names or an unbuilt program.
  Kernel createKernel(const std::string& name) const;

  /// Names of all kernels in the program.
  std::vector<std::string> kernelNames() const;

  const clc::Program& compiled() const;

private:
  struct Impl {
    std::string source;
    std::string buildLog;
    bool built = false;
    clc::Program program;
  };

  std::shared_ptr<Impl> impl_;
};

/// A kernel handle plus its staged arguments (clSetKernelArg analogue).
class Kernel {
public:
  Kernel() = default;
  Kernel(std::shared_ptr<const clc::Program> program, std::string name);

  bool valid() const noexcept { return program_ != nullptr; }
  const std::string& name() const noexcept { return name_; }

  std::size_t argCount() const;

  /// Buffer argument (__global pointer parameter).
  void setArg(std::size_t index, const Buffer& buffer);

  /// Scalar argument of any host arithmetic type. The value is converted
  /// to the parameter's declared type exactly as the kernel's own cast
  /// converts it, so setArg(i, 5) on a float parameter passes 5.0f and
  /// setArg(i, 1e20f) on an int parameter saturates to INT_MAX.
  template <HostScalar T>
  void setArg(std::size_t index, T value) {
    setScalar(index, scalarSlot(value), scalarTag<T>());
  }

  /// Scalar argument given as a canonical clc slot of type `tag`; stores
  /// clc::eval::convert(slot, tag, <parameter type>), the VM's own cast.
  void setScalar(std::size_t index, std::uint64_t slot, clc::TypeTag tag);

  /// By-value struct argument: raw bytes, must match the declared size.
  void setArgBytes(std::size_t index, const void* data, std::size_t size);

  /// __local pointer argument: the per-work-group byte count. It is checked
  /// against the device's local memory at enqueue.
  void setArgLocal(std::size_t index, std::uint64_t bytes);

  /// Launch-time introspection used by the command queue.
  struct StagedArg {
    bool set = false;
    clc::KernelArgValue value;
    Buffer buffer; // keeps buffer alive; valid when value.kind == Buffer
  };
  const std::vector<StagedArg>& stagedArgs() const noexcept { return args_; }
  const clc::Program& program() const { return *program_; }
  const clc::KernelInfo& kernelInfo() const { return *kernel_; }

private:
  const clc::ParamInfo& param(std::size_t index) const;

  std::shared_ptr<const clc::Program> program_;
  std::string name_;
  const clc::KernelInfo* kernel_ = nullptr;
  const clc::FunctionInfo* func_ = nullptr;
  std::vector<StagedArg> args_;
};

} // namespace ocl
