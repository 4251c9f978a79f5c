// Scalar evaluation semantics of the clc bytecode, shared between the VM
// (vm.cpp) and the bytecode optimizer (opt.cpp). The optimizer folds
// constants by calling exactly the routines the interpreter executes, so
// an O2 program is bit-identical to O0 by construction.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "clc/bytecode.h"

namespace clc::eval {

// --- slot helpers ------------------------------------------------------------

inline float slotF32(std::uint64_t s) noexcept {
  float f;
  const std::uint32_t b = static_cast<std::uint32_t>(s);
  std::memcpy(&f, &b, 4);
  return f;
}

inline std::uint64_t f32Slot(float f) noexcept {
  std::uint32_t b;
  std::memcpy(&b, &f, 4);
  return b;
}

inline double slotF64(std::uint64_t s) noexcept {
  double d;
  std::memcpy(&d, &s, 8);
  return d;
}

inline std::uint64_t f64Slot(double d) noexcept {
  std::uint64_t b;
  std::memcpy(&b, &d, 8);
  return b;
}

/// Canonicalizes an integer slot for its tag (sign/zero extension).
inline std::uint64_t canon(std::uint64_t v, TypeTag tag) noexcept {
  switch (tag) {
    case TypeTag::I8: return std::uint64_t(std::int64_t(std::int8_t(v)));
    case TypeTag::U8: return v & 0xffULL;
    case TypeTag::I16: return std::uint64_t(std::int64_t(std::int16_t(v)));
    case TypeTag::U16: return v & 0xffffULL;
    case TypeTag::I32: return std::uint64_t(std::int64_t(std::int32_t(v)));
    case TypeTag::U32: return v & 0xffffffffULL;
    default: return v;
  }
}

inline bool isSignedTag(TypeTag tag) noexcept {
  switch (tag) {
    case TypeTag::I8:
    case TypeTag::I16:
    case TypeTag::I32:
    case TypeTag::I64:
      return true;
    default:
      return false;
  }
}

inline bool isFloatTag(TypeTag tag) noexcept {
  return tag == TypeTag::F32 || tag == TypeTag::F64;
}

inline unsigned tagBits(TypeTag tag) noexcept {
  switch (tag) {
    case TypeTag::I8:
    case TypeTag::U8: return 8;
    case TypeTag::I16:
    case TypeTag::U16: return 16;
    case TypeTag::I32:
    case TypeTag::U32:
    case TypeTag::F32: return 32;
    default: return 64;
  }
}

/// Safe float-to-integer conversion (clamps like hardware instead of UB).
template <typename To, typename From>
std::uint64_t floatToInt(From value) noexcept {
  if (std::isnan(value)) {
    return 0;
  }
  constexpr double lo = double(std::numeric_limits<To>::min());
  constexpr double hi = double(std::numeric_limits<To>::max());
  const double d = double(value);
  if (d <= lo) return std::uint64_t(std::int64_t(std::numeric_limits<To>::min()));
  if (d >= hi) return std::uint64_t(std::int64_t(std::numeric_limits<To>::max()));
  return std::uint64_t(std::int64_t(To(value)));
}

namespace detail {

/// A float source converted to any tag; the cold half of convert().
[[gnu::noinline]] inline std::uint64_t convertFromFloat(std::uint64_t v,
                                                        TypeTag from,
                                                        TypeTag to) noexcept {
  const double d = from == TypeTag::F32 ? double(slotF32(v)) : slotF64(v);
  switch (to) {
    case TypeTag::F32: return f32Slot(float(d));
    case TypeTag::F64: return f64Slot(d);
    case TypeTag::I8: return floatToInt<std::int8_t>(d);
    case TypeTag::U8: return canon(floatToInt<std::int64_t>(d), to);
    case TypeTag::I16: return floatToInt<std::int16_t>(d);
    case TypeTag::U16: return canon(floatToInt<std::int64_t>(d), to);
    case TypeTag::I32: return floatToInt<std::int32_t>(d);
    case TypeTag::U32: {
      if (std::isnan(d) || d <= 0) return 0;
      if (d >= 4294967295.0) return 0xffffffffULL;
      return std::uint64_t(d);
    }
    case TypeTag::I64: return floatToInt<std::int64_t>(d);
    case TypeTag::U64:
    case TypeTag::Ptr: {
      if (std::isnan(d) || d <= 0) return 0;
      if (d >= 18446744073709551615.0) return ~0ULL;
      return std::uint64_t(d);
    }
  }
  return v;
}

} // namespace detail

/// Converts a slot between tags. Integer sources and f32 -> i32 are
/// inlined; the other float sources take the out-of-line path.
[[gnu::always_inline]] inline std::uint64_t convert(std::uint64_t v,
                                                    TypeTag from,
                                                    TypeTag to) noexcept {
  if (from == to) {
    return v;
  }
  if (isFloatTag(from)) {
    if (from == TypeTag::F32 && to == TypeTag::I32) {
      return floatToInt<std::int32_t>(double(slotF32(v)));
    }
    return detail::convertFromFloat(v, from, to);
  }
  if (to == TypeTag::F32) {
    return isSignedTag(from) ? f32Slot(float(std::int64_t(v)))
                             : f32Slot(float(v));
  }
  if (to == TypeTag::F64) {
    return isSignedTag(from) ? f64Slot(double(std::int64_t(v)))
                             : f64Slot(double(v));
  }
  return canon(v, to);
}

// --- arithmetic / comparison -------------------------------------------------
//
// evalArith and evalCompare test the tag first and are force-inlined,
// so a caller with a constant op (one VM handler per op) compiles to the
// F32 / I32 / U32 / 64-bit-integer paths with canon() and the shift masks
// folded. F64 and the 8/16-bit tags share one out-of-line path. Each body
// below is the single definition of its semantics: the hot tags instantiate
// it with a constant tag, the cold path with the runtime one.

enum class EvalStatus {
  Ok,
  DivByZero,   // integer division/remainder by zero (the VM traps)
  BadOp,       // op/tag combination the VM would trap on
};

namespace detail {

template <typename F>
[[gnu::always_inline]] inline EvalStatus floatArith(
    Op op, F a, F b, std::uint64_t& out) noexcept {
  F r{};
  switch (op) {
    case Op::Add: r = a + b; break;
    case Op::Sub: r = a - b; break;
    case Op::Mul: r = a * b; break;
    case Op::Div: r = a / b; break;
    case Op::Rem: r = std::fmod(a, b); break;
    default: return EvalStatus::BadOp;
  }
  if constexpr (sizeof(F) == 4) {
    out = f32Slot(r);
  } else {
    out = f64Slot(r);
  }
  return EvalStatus::Ok;
}

[[gnu::always_inline]] inline EvalStatus intArith(
    Op op, TypeTag tag, std::uint64_t lhs, std::uint64_t rhs,
    std::uint64_t& out) noexcept {
  const unsigned bits = tagBits(tag);
  switch (op) {
    case Op::Add: out = canon(lhs + rhs, tag); return EvalStatus::Ok;
    case Op::Sub: out = canon(lhs - rhs, tag); return EvalStatus::Ok;
    case Op::Mul: out = canon(lhs * rhs, tag); return EvalStatus::Ok;
    case Op::Div: {
      if (rhs == 0) return EvalStatus::DivByZero;
      if (isSignedTag(tag)) {
        const auto a = std::int64_t(lhs);
        const auto b = std::int64_t(rhs);
        if (b == -1 && a == std::numeric_limits<std::int64_t>::min()) {
          out = canon(std::uint64_t(a), tag); // wraps, avoids host UB
          return EvalStatus::Ok;
        }
        out = canon(std::uint64_t(a / b), tag);
        return EvalStatus::Ok;
      }
      out = canon(lhs / rhs, tag);
      return EvalStatus::Ok;
    }
    case Op::Rem: {
      if (rhs == 0) return EvalStatus::DivByZero;
      if (isSignedTag(tag)) {
        const auto a = std::int64_t(lhs);
        const auto b = std::int64_t(rhs);
        if (b == -1) {
          out = 0;
          return EvalStatus::Ok;
        }
        out = canon(std::uint64_t(a % b), tag);
        return EvalStatus::Ok;
      }
      out = canon(lhs % rhs, tag);
      return EvalStatus::Ok;
    }
    case Op::Shl:
      out = canon(lhs << (rhs & (bits - 1)), tag);
      return EvalStatus::Ok;
    case Op::Shr:
      if (isSignedTag(tag)) {
        out = canon(std::uint64_t(std::int64_t(lhs) >> (rhs & (bits - 1))),
                    tag);
        return EvalStatus::Ok;
      }
      out = canon((lhs & (bits == 64 ? ~0ULL : ((1ULL << bits) - 1))) >>
                      (rhs & (bits - 1)),
                  tag);
      return EvalStatus::Ok;
    case Op::BitAnd: out = canon(lhs & rhs, tag); return EvalStatus::Ok;
    case Op::BitOr: out = canon(lhs | rhs, tag); return EvalStatus::Ok;
    case Op::BitXor: out = canon(lhs ^ rhs, tag); return EvalStatus::Ok;
    default:
      return EvalStatus::BadOp;
  }
}

/// What the out-of-line paths return by value, so that a caller's result
/// can stay in a register.
template <typename T>
struct Evaluated {
  EvalStatus status;
  T value;
};

/// F64 and the 8/16-bit integer tags.
[[gnu::noinline]] inline Evaluated<std::uint64_t> coldArith(
    Op op, TypeTag tag, std::uint64_t lhs, std::uint64_t rhs) noexcept {
  Evaluated<std::uint64_t> r{EvalStatus::Ok, 0};
  r.status = tag == TypeTag::F64
                 ? floatArith(op, slotF64(lhs), slotF64(rhs), r.value)
                 : intArith(op, tag, lhs, rhs, r.value);
  return r;
}

template <typename T>
[[gnu::always_inline]] inline EvalStatus ordered(Op op, T a, T b,
                                                 bool& out) noexcept {
  switch (op) {
    case Op::CmpEq: out = a == b; return EvalStatus::Ok;
    case Op::CmpNe: out = a != b; return EvalStatus::Ok;
    case Op::CmpLt: out = a < b; return EvalStatus::Ok;
    case Op::CmpLe: out = a <= b; return EvalStatus::Ok;
    case Op::CmpGt: out = a > b; return EvalStatus::Ok;
    case Op::CmpGe: out = a >= b; return EvalStatus::Ok;
    default: return EvalStatus::BadOp;
  }
}

/// F64 and the 8/16-bit integer tags.
[[gnu::noinline]] inline Evaluated<bool> coldCompare(
    Op op, TypeTag tag, std::uint64_t lhs, std::uint64_t rhs) noexcept {
  Evaluated<bool> r{EvalStatus::Ok, false};
  if (tag == TypeTag::F64) {
    r.status = ordered(op, slotF64(lhs), slotF64(rhs), r.value);
  } else if (isSignedTag(tag)) {
    r.status = ordered(op, std::int64_t(lhs), std::int64_t(rhs), r.value);
  } else {
    r.status = ordered(op, lhs, rhs, r.value);
  }
  return r;
}

/// Stores a cold path's value where the inline paths store theirs.
template <typename T>
[[gnu::always_inline]] inline EvalStatus unpack(Evaluated<T> r,
                                                T& out) noexcept {
  if (r.status == EvalStatus::Ok) {
    out = r.value;
  }
  return r.status;
}

} // namespace detail

/// Binary arithmetic with the VM's exact semantics. On EvalStatus::Ok the
/// result is in `out`; otherwise the VM would trap and the optimizer must
/// leave the instruction alone.
[[gnu::always_inline]] inline EvalStatus evalArith(
    Op op, TypeTag tag, std::uint64_t lhs, std::uint64_t rhs,
    std::uint64_t& out) noexcept {
  if (tag == TypeTag::F32) {
    return detail::floatArith(op, slotF32(lhs), slotF32(rhs), out);
  }
  if (tag == TypeTag::I32) {
    return detail::intArith(op, TypeTag::I32, lhs, rhs, out);
  }
  if (tag == TypeTag::U32) {
    return detail::intArith(op, TypeTag::U32, lhs, rhs, out);
  }
  if (tag == TypeTag::I64) {
    return detail::intArith(op, TypeTag::I64, lhs, rhs, out);
  }
  if (tag == TypeTag::U64 || tag == TypeTag::Ptr) {
    return detail::intArith(op, TypeTag::U64, lhs, rhs, out);
  }
  return detail::unpack(detail::coldArith(op, tag, lhs, rhs), out);
}

/// Comparison with the VM's exact semantics: floats compare as values
/// (NaN unordered), signed tags as int64, the rest as uint64.
[[gnu::always_inline]] inline EvalStatus evalCompare(
    Op op, TypeTag tag, std::uint64_t lhs, std::uint64_t rhs,
    bool& out) noexcept {
  if (tag == TypeTag::F32) {
    return detail::ordered(op, slotF32(lhs), slotF32(rhs), out);
  }
  if (tag == TypeTag::I32 || tag == TypeTag::I64) {
    return detail::ordered(op, std::int64_t(lhs), std::int64_t(rhs), out);
  }
  if (tag == TypeTag::U32 || tag == TypeTag::U64 || tag == TypeTag::Ptr) {
    return detail::ordered(op, lhs, rhs, out);
  }
  return detail::unpack(detail::coldCompare(op, tag, lhs, rhs), out);
}

/// Unary negation with the VM's exact semantics.
inline std::uint64_t evalNeg(TypeTag tag, std::uint64_t v) noexcept {
  if (tag == TypeTag::F32) {
    return f32Slot(-slotF32(v));
  }
  if (tag == TypeTag::F64) {
    return f64Slot(-slotF64(v));
  }
  return canon(0 - v, tag);
}

} // namespace clc::eval
