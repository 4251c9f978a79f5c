#include "clc/builtins.h"

#include <iterator>
#include <unordered_map>
#include <utility>

namespace clc {

namespace {

enum class Family : std::uint8_t {
  WorkItem,     // (uint dim) -> size_t
  WorkDim,      // () -> uint
  Barrier,      // (int flags) -> void
  Math1,        // (genfloat) -> genfloat
  Math2,        // (genfloat, genfloat) -> genfloat
  Math3,        // (genfloat, genfloat, genfloat) -> genfloat
  MinMax,       // (gentype, gentype) -> gentype  (ints and floats)
  IAbs,         // (genint) -> genint
  Clamp,        // (gentype, gentype, gentype) -> gentype
  AsType,       // (32-bit scalar) -> fixed 32-bit scalar
  Convert,      // (scalar) -> fixed scalar
  Atomic1,      // (ptr) -> old
  Atomic2,      // (ptr, operand) -> old
  Atomic3,      // (ptr, cmp, val) -> old
};

/// Operand-stack arguments the VM pops for a builtin of `family`. A
/// barrier's flags operand is dropped by codegen, which emits Op::Barrier.
constexpr std::uint8_t familyArity(Family family) {
  switch (family) {
    case Family::WorkDim:
      return 0;
    case Family::Math2:
    case Family::MinMax:
    case Family::Atomic2:
      return 2;
    case Family::Math3:
    case Family::Clamp:
    case Family::Atomic3:
      return 3;
    default:
      return 1;
  }
}

/// Every fact about one builtin. `byName` is false for rows reached only
/// by overload resolution from another row's name (float clamp from
/// clamp, float atomicAdd from atomicAdd).
struct Row {
  Builtin id;
  const char* name;
  Family family;
  std::uint8_t cycles;
  bool byName = true;
};

constexpr Row kRows[] = {
    {Builtin::GetGlobalId, "get_global_id", Family::WorkItem, 2},
    {Builtin::GetLocalId, "get_local_id", Family::WorkItem, 2},
    {Builtin::GetGroupId, "get_group_id", Family::WorkItem, 2},
    {Builtin::GetGlobalSize, "get_global_size", Family::WorkItem, 2},
    {Builtin::GetLocalSize, "get_local_size", Family::WorkItem, 2},
    {Builtin::GetNumGroups, "get_num_groups", Family::WorkItem, 2},
    {Builtin::GetWorkDim, "get_work_dim", Family::WorkDim, 2},
    {Builtin::Barrier, "barrier", Family::Barrier, 16},

    {Builtin::Sqrt, "sqrt", Family::Math1, 8},
    {Builtin::Rsqrt, "rsqrt", Family::Math1, 8},
    {Builtin::Sin, "sin", Family::Math1, 16},
    {Builtin::Cos, "cos", Family::Math1, 16},
    {Builtin::Tan, "tan", Family::Math1, 16},
    {Builtin::Asin, "asin", Family::Math1, 16},
    {Builtin::Acos, "acos", Family::Math1, 16},
    {Builtin::Atan, "atan", Family::Math1, 16},
    {Builtin::Exp, "exp", Family::Math1, 16},
    {Builtin::Exp2, "exp2", Family::Math1, 16},
    {Builtin::Log, "log", Family::Math1, 16},
    {Builtin::Log2, "log2", Family::Math1, 16},
    {Builtin::Log10, "log10", Family::Math1, 16},
    {Builtin::Fabs, "fabs", Family::Math1, 1},
    {Builtin::Floor, "floor", Family::Math1, 1},
    {Builtin::Ceil, "ceil", Family::Math1, 1},
    {Builtin::Round, "round", Family::Math1, 1},
    {Builtin::Trunc, "trunc", Family::Math1, 1},

    {Builtin::Pow, "pow", Family::Math2, 16},
    {Builtin::Atan2, "atan2", Family::Math2, 16},
    {Builtin::Fmod, "fmod", Family::Math2, 8},
    {Builtin::Fmin, "fmin", Family::Math2, 1},
    {Builtin::Fmax, "fmax", Family::Math2, 1},
    {Builtin::Hypot, "hypot", Family::Math2, 16},
    {Builtin::Copysign, "copysign", Family::Math2, 1},

    {Builtin::Mad, "mad", Family::Math3, 2},
    {Builtin::Fma, "fma", Family::Math3, 2},
    {Builtin::Clamp, "clamp", Family::Clamp, 2, false},
    {Builtin::Mix, "mix", Family::Math3, 2},

    {Builtin::IMin, "min", Family::MinMax, 1},
    {Builtin::IMax, "max", Family::MinMax, 1},
    {Builtin::IAbs, "abs", Family::IAbs, 1},
    {Builtin::IClamp, "clamp", Family::Clamp, 2},

    {Builtin::AsInt, "as_int", Family::AsType, 1},
    {Builtin::AsUInt, "as_uint", Family::AsType, 1},
    {Builtin::AsFloat, "as_float", Family::AsType, 1},

    {Builtin::ConvertInt, "convert_int", Family::Convert, 1},
    {Builtin::ConvertUInt, "convert_uint", Family::Convert, 1},
    {Builtin::ConvertFloat, "convert_float", Family::Convert, 1},

    {Builtin::AtomicAdd, "atomic_add", Family::Atomic2, 32},
    {Builtin::AtomicSub, "atomic_sub", Family::Atomic2, 32},
    {Builtin::AtomicXchg, "atomic_xchg", Family::Atomic2, 32},
    {Builtin::AtomicMin, "atomic_min", Family::Atomic2, 32},
    {Builtin::AtomicMax, "atomic_max", Family::Atomic2, 32},
    {Builtin::AtomicAnd, "atomic_and", Family::Atomic2, 32},
    {Builtin::AtomicOr, "atomic_or", Family::Atomic2, 32},
    {Builtin::AtomicXor, "atomic_xor", Family::Atomic2, 32},
    {Builtin::AtomicInc, "atomic_inc", Family::Atomic1, 32},
    {Builtin::AtomicDec, "atomic_dec", Family::Atomic1, 32},
    {Builtin::AtomicCmpXchg, "atomic_cmpxchg", Family::Atomic3, 32},
    {Builtin::AtomicAddFloat, "atomic_add_float", Family::Atomic2, 32, false},
};

constexpr bool rowsInEnumOrder() {
  for (std::size_t i = 0; i < std::size(kRows); ++i) {
    if (kRows[i].id != Builtin(i)) {
      return false;
    }
  }
  return std::size(kRows) == std::size_t(kMaxBuiltin) + 1;
}
static_assert(rowsInEnumOrder(), "one row per Builtin, in enum order");

/// An id outside the enum, which the verifier rejects.
constexpr Row kUnknown = {Builtin(-1), "?", Family::WorkDim, 1, false};

const Row& row(Builtin b) noexcept {
  return std::size_t(b) < std::size(kRows) ? kRows[std::size_t(b)]
                                           : kUnknown;
}

/// Source names: every row's own name plus the alternative spellings.
const std::unordered_map<std::string, const Row*>& names() {
  static const std::unordered_map<std::string, const Row*> t = [] {
    std::unordered_map<std::string, const Row*> m;
    for (const Row& r : kRows) {
      if (r.byName) {
        m.emplace(r.name, &r);
      }
    }
    const std::pair<const char*, Builtin> aliases[] = {
        {"__syncthreads", Builtin::Barrier}, // CUDA dialect
        {"mem_fence", Builtin::Barrier},
        {"native_sqrt", Builtin::Sqrt},
        {"native_rsqrt", Builtin::Rsqrt},
        {"native_sin", Builtin::Sin},
        {"native_cos", Builtin::Cos},
        {"native_exp", Builtin::Exp},
        {"native_log", Builtin::Log},
        {"fabsf", Builtin::Fabs},
        {"powf", Builtin::Pow},
        {"atom_add", Builtin::AtomicAdd},
        {"atomicAdd", Builtin::AtomicAdd}, // CUDA dialect
    };
    for (const auto& [alias, id] : aliases) {
      m.emplace(alias, &row(id));
    }
    return m;
  }();
  return t;
}

[[noreturn]] void mismatch(const std::string& name) {
  throw common::InvalidArgument("no matching overload for builtin '" + name +
                                "'");
}

const Type* promoteToFloat(const Type* t, TypeTable& types) {
  if (t->isFloatingScalar()) {
    return t;
  }
  if (t->isArithmetic()) {
    return types.scalar(ScalarKind::F32);
  }
  return nullptr;
}

} // namespace

std::optional<BuiltinCall> resolveBuiltin(
    const std::string& name, const std::vector<const Type*>& argTypes,
    TypeTable& types) {
  const auto it = names().find(name);
  if (it == names().end()) {
    return std::nullopt;
  }
  const Row& entry = *it->second;
  BuiltinCall call;
  call.id = entry.id;

  // Every family takes exactly its arity; a barrier's flags are optional.
  const std::size_t n = familyArity(entry.family);
  if (argTypes.size() != n &&
      !(entry.family == Family::Barrier && argTypes.empty())) {
    mismatch(name);
  }

  switch (entry.family) {
    case Family::WorkItem: {
      if (!argTypes[0]->isIntegerScalar()) mismatch(name);
      call.paramTypes = {types.scalar(ScalarKind::U32)};
      call.resultType = types.scalar(ScalarKind::U64); // size_t
      return call;
    }
    case Family::WorkDim: {
      call.resultType = types.scalar(ScalarKind::U32);
      return call;
    }
    case Family::Barrier: {
      if (argTypes.size() == 1 && !argTypes[0]->isIntegerScalar()) {
        mismatch(name);
      }
      call.paramTypes.assign(argTypes.size(), types.scalar(ScalarKind::I32));
      call.resultType = types.voidType();
      return call;
    }
    case Family::Math1: {
      const Type* t = promoteToFloat(argTypes[0], types);
      if (t == nullptr) mismatch(name);
      call.paramTypes = {t};
      call.resultType = t;
      return call;
    }
    case Family::Math2:
    case Family::Math3: {
      const Type* t = nullptr;
      for (const Type* arg : argTypes) {
        const Type* f = promoteToFloat(arg, types);
        if (f == nullptr) mismatch(name);
        if (t == nullptr || f->scalarKind() == ScalarKind::F64) {
          t = (t != nullptr && t->scalarKind() == ScalarKind::F64) ? t : f;
        }
      }
      call.paramTypes.assign(n, t);
      call.resultType = t;
      return call;
    }
    case Family::MinMax: {
      if (!argTypes[0]->isArithmetic() || !argTypes[1]->isArithmetic()) {
        mismatch(name);
      }
      // Floats route to fmin/fmax; integers keep min/max semantics.
      if (argTypes[0]->isFloatingScalar() || argTypes[1]->isFloatingScalar()) {
        const Type* t =
            (argTypes[0]->isFloatingScalar() &&
             argTypes[0]->scalarKind() == ScalarKind::F64) ||
                    (argTypes[1]->isFloatingScalar() &&
                     argTypes[1]->scalarKind() == ScalarKind::F64)
                ? types.scalar(ScalarKind::F64)
                : types.scalar(ScalarKind::F32);
        call.id = entry.id == Builtin::IMin ? Builtin::Fmin : Builtin::Fmax;
        call.paramTypes = {t, t};
        call.resultType = t;
        return call;
      }
      // Integer: unify to the wider/unsigned type.
      const bool isU = !isSigned(argTypes[0]->scalarKind()) ||
                       !isSigned(argTypes[1]->scalarKind());
      const std::size_t size =
          std::max(argTypes[0]->size(), argTypes[1]->size());
      ScalarKind kind;
      if (size <= 4) {
        kind = isU ? ScalarKind::U32 : ScalarKind::I32;
      } else {
        kind = isU ? ScalarKind::U64 : ScalarKind::I64;
      }
      const Type* t = types.scalar(kind);
      call.paramTypes = {t, t};
      call.resultType = t;
      return call;
    }
    case Family::IAbs: {
      if (argTypes[0]->isFloatingScalar()) {
        call.id = Builtin::Fabs;
        call.paramTypes = {argTypes[0]};
        call.resultType = argTypes[0];
        return call;
      }
      if (!argTypes[0]->isIntegerScalar()) mismatch(name);
      const Type* t = types.scalar(
          argTypes[0]->size() <= 4 ? ScalarKind::I32 : ScalarKind::I64);
      call.paramTypes = {t};
      call.resultType = t;
      return call;
    }
    case Family::Clamp: {
      bool anyFloat = false;
      bool anyDouble = false;
      for (const Type* arg : argTypes) {
        if (!arg->isArithmetic()) mismatch(name);
        anyFloat |= arg->isFloatingScalar();
        anyDouble |= arg->isFloatingScalar() &&
                     arg->scalarKind() == ScalarKind::F64;
      }
      const Type* t;
      if (anyFloat) {
        call.id = Builtin::Clamp;
        t = types.scalar(anyDouble ? ScalarKind::F64 : ScalarKind::F32);
      } else {
        call.id = Builtin::IClamp;
        t = types.scalar(ScalarKind::I64);
      }
      call.paramTypes.assign(3, t);
      call.resultType = t;
      return call;
    }
    case Family::AsType: {
      if (!argTypes[0]->isScalar() || argTypes[0]->size() != 4) {
        mismatch(name);
      }
      call.paramTypes = {argTypes[0]};
      switch (entry.id) {
        case Builtin::AsInt: call.resultType = types.scalar(ScalarKind::I32); break;
        case Builtin::AsUInt: call.resultType = types.scalar(ScalarKind::U32); break;
        default: call.resultType = types.scalar(ScalarKind::F32); break;
      }
      return call;
    }
    case Family::Convert: {
      if (!argTypes[0]->isArithmetic()) mismatch(name);
      call.paramTypes = {argTypes[0]};
      switch (entry.id) {
        case Builtin::ConvertInt: call.resultType = types.scalar(ScalarKind::I32); break;
        case Builtin::ConvertUInt: call.resultType = types.scalar(ScalarKind::U32); break;
        default: call.resultType = types.scalar(ScalarKind::F32); break;
      }
      return call;
    }
    case Family::Atomic1:
    case Family::Atomic2:
    case Family::Atomic3: {
      if (!argTypes[0]->isPointer()) mismatch(name);
      const Type* pointee = argTypes[0]->pointee();
      if (!pointee->isIntegerScalar() || pointee->size() != 4) {
        // CUDA's atomicAdd also covers float*.
        if (entry.id == Builtin::AtomicAdd && pointee->isFloatingScalar() &&
            pointee->size() == 4 && n == 2) {
          call.id = Builtin::AtomicAddFloat;
          call.paramTypes = {argTypes[0], types.scalar(ScalarKind::F32)};
          call.resultType = types.scalar(ScalarKind::F32);
          return call;
        }
        mismatch(name);
      }
      // Any address space is accepted: CUDA-dialect device functions take
      // unqualified pointers whose actual space the VM resolves at run
      // time from the pointer value itself.
      call.paramTypes.push_back(argTypes[0]);
      for (std::size_t i = 1; i < n; ++i) {
        call.paramTypes.push_back(pointee);
      }
      call.resultType = pointee;
      return call;
    }
  }
  mismatch(name);
}

std::uint32_t builtinCycleCost(Builtin b) noexcept { return row(b).cycles; }

std::uint8_t builtinArity(Builtin b) noexcept {
  return familyArity(row(b).family);
}

const char* builtinName(Builtin b) noexcept { return row(b).name; }

bool isAtomic(Builtin b) noexcept {
  const Family family = row(b).family;
  return family >= Family::Atomic1 && family <= Family::Atomic3;
}

} // namespace clc
