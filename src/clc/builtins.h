// Builtin functions of the clc OpenCL-C subset: work-item queries, math,
// integer, atomic, and reinterpretation builtins. The CUDA dialect names
// (__syncthreads, threadIdx.x, ...) are mapped onto the same ids by sema.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "clc/types.h"

namespace clc {

enum class Builtin : std::int16_t {
  // Work-item functions.
  GetGlobalId,
  GetLocalId,
  GetGroupId,
  GetGlobalSize,
  GetLocalSize,
  GetNumGroups,
  GetWorkDim,
  Barrier,

  // Unary math (float or double, result follows the operand).
  Sqrt, Rsqrt, Sin, Cos, Tan, Asin, Acos, Atan,
  Exp, Exp2, Log, Log2, Log10,
  Fabs, Floor, Ceil, Round, Trunc,

  // Binary math.
  Pow, Atan2, Fmod, Fmin, Fmax, Hypot, Copysign,

  // Ternary math.
  Mad, Fma, Clamp, Mix,

  // Integer functions (signed/unsigned resolved by operand type).
  IMin, IMax, IAbs, IClamp,

  // Reinterpretation.
  AsInt, AsUInt, AsFloat,

  // Conversion helpers (explicit convert_T notation).
  ConvertInt, ConvertUInt, ConvertFloat,

  // 32-bit atomics on __global or __local int/uint pointers.
  AtomicAdd, AtomicSub, AtomicXchg, AtomicMin, AtomicMax,
  AtomicAnd, AtomicOr, AtomicXor, AtomicInc, AtomicDec, AtomicCmpXchg,

  // CUDA's atomicAdd on a float pointer (OpenCL 1.1 code uses a
  // compare-exchange loop instead).
  AtomicAddFloat,
};

constexpr Builtin kMaxBuiltin = Builtin::AtomicAddFloat;

/// Result of resolving a builtin call against argument types.
struct BuiltinCall {
  Builtin id;
  const Type* resultType = nullptr;
  /// Target type each argument must be coerced to (same length as args).
  std::vector<const Type*> paramTypes;
};

/// Resolves `name(argTypes...)` to a builtin. Returns nullopt when `name`
/// is not a builtin; throws CompileError-style message strings via
/// common::InvalidArgument when the name is a builtin but the argument
/// types do not fit (sema converts this to a located diagnostic).
std::optional<BuiltinCall> resolveBuiltin(const std::string& name,
                                          const std::vector<const Type*>& argTypes,
                                          TypeTable& types);

// Row lookups into the builtin table (builtins.cpp): one row per Builtin
// with its canonical name, family (which fixes the arity) and cost.

/// Cycle cost charged by the timing model for one execution.
std::uint32_t builtinCycleCost(Builtin b) noexcept;

/// Number of operand-stack arguments the VM pops for this builtin.
std::uint8_t builtinArity(Builtin b) noexcept;

const char* builtinName(Builtin b) noexcept;

/// True for the read-modify-write atomics.
bool isAtomic(Builtin b) noexcept;

} // namespace clc
