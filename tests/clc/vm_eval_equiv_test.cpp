// Every VM handler that evaluates a binary op, a compare or a conversion
// must agree bit for bit with clc/eval.h, the single definition of those
// semantics that the optimizer folds with. Each case runs a hand-assembled,
// verified kernel in the plain form and in every superinstruction form that
// can embed the op, over each TypeTag and an edge-operand grid. A case
// traps exactly where eval.h reports DivByZero or BadOp. The hot tags run
// on quickened handlers and the others on generic ones (clc/dispatch.h),
// so every tag loop covers both. Loads and stores are checked per tag the
// same way: sign or zero extension at each width, narrow-store truncation,
// Ptr as U64, and the global traffic counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "clc/dispatch.h"
#include "clc/eval.h"
#include "clc/verify.h"
#include "clc/vm.h"

namespace {

using clc::Instr;
using clc::Op;
using clc::TypeTag;
namespace eval = clc::eval;

constexpr TypeTag kTags[] = {TypeTag::I8,  TypeTag::U8,  TypeTag::I16,
                             TypeTag::U16, TypeTag::I32, TypeTag::U32,
                             TypeTag::I64, TypeTag::U64, TypeTag::F32,
                             TypeTag::F64, TypeTag::Ptr};
constexpr Op kArithOps[] = {Op::Add, Op::Sub,    Op::Mul,   Op::Div,
                            Op::Rem, Op::Shl,    Op::Shr,   Op::BitAnd,
                            Op::BitOr, Op::BitXor};
constexpr Op kCompareOps[] = {Op::CmpEq, Op::CmpNe, Op::CmpLt,
                              Op::CmpLe, Op::CmpGt, Op::CmpGe};

// The kernel's frame: out pointer, then three operand slots.
constexpr std::int32_t kOut = 0;
constexpr std::int32_t kLhs = 8;
constexpr std::int32_t kRhs = 16;
constexpr std::int32_t kAcc = 24;
constexpr std::uint32_t kFrameSize = 32;

/// Canonical slots of edge operands for `tag`: 0, ±1, the int and long
/// extremes, UINT_MAX and shift counts for integer tags; ±0, ±1, NaN,
/// ±inf, a denormal and out-of-range magnitudes for float tags.
std::vector<std::uint64_t> grid(TypeTag tag) {
  std::vector<std::uint64_t> out;
  if (tag == TypeTag::F32 || tag == TypeTag::F64) {
    const bool f32 = tag == TypeTag::F32;
    const double values[] = {0.0,
                             -0.0,
                             1.0,
                             -1.0,
                             0.5,
                             -7.25,
                             31.0,
                             64.0,
                             2147483647.0,
                             -2147483648.0,
                             4294967295.0,
                             9.3e18,
                             -9.3e18,
                             1e30,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
    for (const double d : values) {
      out.push_back(f32 ? eval::f32Slot(float(d)) : eval::f64Slot(d));
    }
    using FloatLimits = std::numeric_limits<float>;
    using DoubleLimits = std::numeric_limits<double>;
    out.push_back(f32 ? eval::f32Slot(FloatLimits::denorm_min())
                      : eval::f64Slot(DoubleLimits::denorm_min()));
    out.push_back(f32 ? eval::f32Slot(FloatLimits::max())
                      : eval::f64Slot(DoubleLimits::max()));
    return out;
  }
  const std::uint64_t raw[] = {
      0,
      1,
      ~0ULL, // -1
      2,
      7,
      std::uint64_t(-7LL),
      31,
      32,
      63,
      64,
      std::uint64_t(std::int64_t(std::numeric_limits<std::int32_t>::min())),
      std::uint64_t(std::numeric_limits<std::int32_t>::max()),
      std::uint64_t(std::numeric_limits<std::int64_t>::min()),
      std::uint64_t(std::numeric_limits<std::int64_t>::max()),
      std::uint64_t(std::numeric_limits<std::uint32_t>::max()),
      0x80,
      0xff,
      0x8000,
  };
  for (const std::uint64_t r : raw) {
    const std::uint64_t v = eval::canon(r, tag);
    if (std::find(out.begin(), out.end(), v) == out.end()) {
      out.push_back(v);
    }
  }
  return out;
}

Instr I(Op op, TypeTag tag = TypeTag::I32, std::int32_t a = 0) {
  return Instr{op, tag, a};
}

/// The `tag`-typed operand at frame offset `offset`, by plain instructions.
void load(std::vector<Instr>& code, std::int32_t offset, TypeTag tag) {
  code.push_back(I(Op::PushFrameAddr, TypeTag::Ptr, offset));
  code.push_back(I(Op::Load, tag));
}

/// Starts a kernel body: pushes the out pointer.
std::vector<Instr> begin() {
  std::vector<Instr> code;
  load(code, kOut, TypeTag::Ptr);
  return code;
}

/// Ends a kernel body: stores the result slot whole through the out
/// pointer below it.
void finish(std::vector<Instr>& code) {
  code.push_back(I(Op::Store, TypeTag::U64));
  code.push_back(I(Op::Ret));
}

/// A verified program whose kernel "k" takes (out, lhs, rhs, acc); the
/// first `globals` of them are __global pointers, the rest `tag` scalars.
clc::Program kernel(std::vector<Instr> code,
                    std::vector<std::uint64_t> constants, TypeTag tag,
                    std::uint32_t globals = 1) {
  clc::Program p;
  p.code = std::move(code);
  p.constants = std::move(constants);
  clc::FunctionInfo f;
  f.name = "k";
  f.codeEnd = std::uint32_t(p.code.size());
  f.frameSize = kFrameSize;
  f.isKernel = true;
  const char* names[] = {"out", "lhs", "rhs", "acc"};
  for (std::uint32_t i = 0; i < 4; ++i) {
    clc::ParamInfo param;
    param.name = names[i];
    param.kind =
        i < globals ? clc::ParamKind::GlobalPtr : clc::ParamKind::Scalar;
    param.size = 8;
    param.scalarTag = tag;
    param.frameOffset = i * 8;
    f.params.push_back(param);
  }
  p.functions.push_back(std::move(f));
  clc::KernelInfo k;
  k.name = "k";
  p.kernels.push_back(k);
  clc::verify(p);
  return p;
}

/// What one run produced: a trap, or the slot the kernel stored.
struct Outcome {
  bool trapped = false;
  std::uint64_t slot = 0;
};

Outcome run(const clc::Program& p, std::uint64_t lhs, std::uint64_t rhs,
            std::uint64_t acc = 0) {
  std::uint64_t out = 0x5a5a5a5a5a5a5a5aULL;
  const std::vector<clc::Segment> segments = {
      clc::Segment{reinterpret_cast<std::uint8_t*>(&out), sizeof(out)}};
  std::vector<clc::KernelArgValue> args(4);
  args[0].kind = clc::KernelArgValue::Kind::Buffer;
  args[1].scalar = lhs;
  args[2].scalar = rhs;
  args[3].scalar = acc;
  clc::NDRange range;
  try {
    clc::executeKernel(p, "k", range, args, segments, nullptr);
  } catch (const clc::TrapError&) {
    return Outcome{true, 0};
  }
  return Outcome{false, out};
}

/// Collects mismatches and reports the first few of them.
class Checker {
public:
  void expect(const std::string& form, Op op, TypeTag tag,
              std::uint64_t lhs, std::uint64_t rhs, eval::EvalStatus status,
              std::uint64_t want, const Outcome& got) {
    ++cases_;
    const bool ok = status == eval::EvalStatus::Ok
                        ? !got.trapped && got.slot == want
                        : got.trapped;
    if (ok) {
      return;
    }
    if (++failures_ <= 10) {
      std::ostringstream msg;
      msg << form << " " << clc::opName(op) << "." << clc::typeTagName(tag)
          << " lhs=0x" << std::hex << lhs << " rhs=0x" << rhs << ": want "
          << (status == eval::EvalStatus::Ok ? "0x" : "a trap");
      if (status == eval::EvalStatus::Ok) {
        msg << want;
      }
      msg << ", got "
          << (got.trapped ? std::string("a trap") : "0x" + hex(got.slot));
      ADD_FAILURE() << msg.str();
    }
  }

  ~Checker() {
    EXPECT_EQ(failures_, 0u) << "of " << cases_ << " cases";
    EXPECT_GT(cases_, 0u);
  }

private:
  static std::string hex(std::uint64_t v) {
    std::ostringstream s;
    s << std::hex << v;
    return s.str();
  }

  std::size_t cases_ = 0;
  std::size_t failures_ = 0;
};

/// Builds one kernel per (op, tag[, rhs index]) with `body` and checks it
/// against eval::evalArith over the grid.
template <typename Body>
void checkArith(const std::string& form, Body body) {
  Checker check;
  for (const TypeTag tag : kTags) {
    const std::vector<std::uint64_t> values = grid(tag);
    for (const Op op : kArithOps) {
      for (std::size_t j = 0; j < values.size(); ++j) {
        const clc::Program p = body(op, tag, values, std::int32_t(j));
        for (const std::uint64_t lhs : values) {
          std::uint64_t want = 0;
          const eval::EvalStatus status =
              eval::evalArith(op, tag, lhs, values[j], want);
          check.expect(form, op, tag, lhs, values[j], status, want,
                       run(p, lhs, values[j]));
        }
      }
    }
  }
}

/// As checkArith, for compares: the result slot is 1 or 0.
template <typename Body>
void checkCompare(const std::string& form, Body body) {
  Checker check;
  for (const TypeTag tag : kTags) {
    const std::vector<std::uint64_t> values = grid(tag);
    for (const Op op : kCompareOps) {
      for (std::size_t j = 0; j < values.size(); ++j) {
        const clc::Program p = body(op, tag, values, std::int32_t(j));
        for (const std::uint64_t lhs : values) {
          bool hit = false;
          const eval::EvalStatus status =
              eval::evalCompare(op, tag, lhs, values[j], hit);
          check.expect(form, op, tag, lhs, values[j], status, hit ? 1 : 0,
                       run(p, lhs, values[j]));
        }
      }
    }
  }
}

TEST(VmEvalEquiv, PlainArith) {
  checkArith("plain", [](Op op, TypeTag tag, const auto&, std::int32_t) {
    std::vector<Instr> code = begin();
    load(code, kLhs, tag);
    load(code, kRhs, tag);
    code.push_back(I(op, tag));
    finish(code);
    return kernel(code, {}, tag);
  });
}

TEST(VmEvalEquiv, BinConstArith) {
  checkArith("bin_const", [](Op op, TypeTag tag, const auto& values,
                             std::int32_t j) {
    std::vector<Instr> code = begin();
    load(code, kLhs, tag);
    code.push_back(I(Op::BinConst, tag, clc::encodeEmbedOp(op, j)));
    finish(code);
    return kernel(code, values, tag);
  });
}

TEST(VmEvalEquiv, FrameBinArith) {
  checkArith("frame_bin", [](Op op, TypeTag tag, const auto&, std::int32_t) {
    std::vector<Instr> code = begin();
    load(code, kLhs, tag);
    code.push_back(I(Op::FrameBin, tag, clc::encodeEmbedOp(op, kRhs)));
    finish(code);
    return kernel(code, {}, tag);
  });
}

TEST(VmEvalEquiv, FrameBin2Arith) {
  checkArith("frame_bin2", [](Op op, TypeTag tag, const auto&, std::int32_t) {
    std::vector<Instr> code = begin();
    code.push_back(I(Op::FrameBin2, tag, clc::encodeFrame2(op, kLhs, kRhs)));
    finish(code);
    return kernel(code, {}, tag);
  });
}

TEST(VmEvalEquiv, LoadBinArith) {
  checkArith("load_bin", [](Op op, TypeTag tag, const auto&, std::int32_t) {
    std::vector<Instr> code = begin();
    load(code, kLhs, tag);
    code.push_back(I(Op::PushFrameAddr, TypeTag::Ptr, kRhs));
    code.push_back(I(Op::LoadBin, tag, std::int32_t(op)));
    finish(code);
    return kernel(code, {}, tag);
  });
}

TEST(VmEvalEquiv, PlainCompare) {
  checkCompare("plain", [](Op op, TypeTag tag, const auto&, std::int32_t) {
    std::vector<Instr> code = begin();
    load(code, kLhs, tag);
    load(code, kRhs, tag);
    code.push_back(I(op, tag));
    finish(code);
    return kernel(code, {}, tag);
  });
}

TEST(VmEvalEquiv, EmbeddedCompare) {
  for (const Op form :
       {Op::BinConst, Op::FrameBin, Op::FrameBin2, Op::LoadBin}) {
    checkCompare(clc::opName(form), [form](Op op, TypeTag tag,
                                           const auto& values, std::int32_t j) {
      std::vector<Instr> code = begin();
      if (form != Op::FrameBin2) {
        load(code, kLhs, tag);
      }
      switch (form) {
        case Op::BinConst:
          code.push_back(I(form, tag, clc::encodeEmbedOp(op, j)));
          break;
        case Op::FrameBin:
          code.push_back(I(form, tag, clc::encodeEmbedOp(op, kRhs)));
          break;
        case Op::FrameBin2:
          code.push_back(I(form, tag, clc::encodeFrame2(op, kLhs, kRhs)));
          break;
        default:
          code.push_back(I(Op::PushFrameAddr, TypeTag::Ptr, kRhs));
          code.push_back(I(form, tag, std::int32_t(op)));
          break;
      }
      finish(code);
      return kernel(code, values, tag);
    });
  }
}

TEST(VmEvalEquiv, CompareAndBranch) {
  // constants: #0 = 0, #1 = 1. CmpJz jumps to the "false" tail, CmpJnz to
  // the "true" tail; either way the stored slot is the compare's 0/1.
  for (const Op form : {Op::CmpJz, Op::CmpJnz}) {
    checkCompare(clc::opName(form), [form](Op op, TypeTag tag, const auto&,
                                           std::int32_t) {
      std::vector<Instr> code = begin();
      load(code, kLhs, tag);
      load(code, kRhs, tag);
      const std::int32_t taken = form == Op::CmpJz ? 0 : 1;
      const auto target = std::int32_t(code.size()) + 4;
      code.push_back(I(form, tag, clc::encodeCmpJump(op, target)));
      code.push_back(I(Op::PushConst, TypeTag::U64, 1 - taken));
      finish(code);
      code.push_back(I(Op::PushConst, TypeTag::U64, taken));
      finish(code);
      return kernel(code, {0, 1}, tag);
    });
  }
}

TEST(VmEvalEquiv, MulAdd) {
  Checker check;
  for (const TypeTag tag : kTags) {
    std::vector<Instr> code = begin();
    load(code, kAcc, tag);
    load(code, kLhs, tag);
    load(code, kRhs, tag);
    code.push_back(I(Op::MulAdd, tag));
    finish(code);
    const clc::Program p = kernel(code, {}, tag);
    const std::vector<std::uint64_t> values = grid(tag);
    // Accumulators: 0, 1, -1 (or -0.0) and the grid's most extreme value.
    const std::uint64_t accs[] = {values[0], values[1], values[2],
                                  values.back()};
    for (const std::uint64_t acc : accs) {
      for (const std::uint64_t lhs : values) {
        for (const std::uint64_t rhs : values) {
          std::uint64_t product = 0;
          std::uint64_t want = 0;
          eval::EvalStatus status =
              eval::evalArith(Op::Mul, tag, lhs, rhs, product);
          if (status == eval::EvalStatus::Ok) {
            status = eval::evalArith(Op::Add, tag, acc, product, want);
          }
          std::ostringstream form;
          form << "mul_add(acc=0x" << std::hex << acc << ")";
          check.expect(form.str(), Op::Mul, tag, lhs, rhs, status, want,
                       run(p, lhs, rhs, acc));
        }
      }
    }
  }
}

TEST(VmEvalEquiv, ConvEveryTagPair) {
  Checker check;
  for (const TypeTag from : kTags) {
    for (const TypeTag to : kTags) {
      std::vector<Instr> code = begin();
      load(code, kLhs, from);
      code.push_back(
          I(Op::Conv, to, (std::int32_t(from) << 8) | std::int32_t(to)));
      finish(code);
      const clc::Program p = kernel(code, {}, from);
      for (const std::uint64_t v : grid(from)) {
        check.expect(std::string("conv to ") + clc::typeTagName(to), Op::Conv,
                     from, v, 0, eval::EvalStatus::Ok,
                     eval::convert(v, from, to), run(p, v, 0));
      }
    }
  }
}

// --- loads and stores --------------------------------------------------------

// The memory kernels take (out, in, value, fill): two 16-byte __global
// buffers, then two whole 64-bit slots.
constexpr std::int32_t kIn = kLhs;
constexpr std::int32_t kValue = kRhs;
constexpr std::int32_t kFill = kAcc;
constexpr std::size_t kBufferBytes = 16;
constexpr std::uint8_t kUntouched = 0x5a;

/// Raw 64-bit patterns: every byte's top bit set, every byte's clear, all
/// ones, and sign bits at single widths.
constexpr std::uint64_t kPatterns[] = {
    0x8182838485868788ULL, 0x7f6e5d4c3b2a1908ULL, ~0ULL,
    0x0000000000000080ULL, 0x00000000ffff7fffULL, 0x80000000ffffffffULL};

bool isSigned(TypeTag tag) {
  return tag == TypeTag::I8 || tag == TypeTag::I16 || tag == TypeTag::I32 ||
         tag == TypeTag::I64;
}

/// The slot a load of `tag` makes of the low bytes of `raw`: sign extended
/// for the signed tags, zero extended for the others.
std::uint64_t extend(std::uint64_t raw, TypeTag tag) {
  const std::size_t bits = clc::typeTagSize(tag) * 8;
  if (bits == 64) {
    return raw;
  }
  const std::uint64_t low = raw & ((1ULL << bits) - 1);
  const std::uint64_t sign = 1ULL << (bits - 1);
  return isSigned(tag) ? (low ^ sign) - sign : low;
}

/// `base` with its low typeTagSize(tag) bytes replaced by `value`'s.
std::uint64_t overlay(std::uint64_t base, std::uint64_t value, TypeTag tag) {
  const std::size_t bits = clc::typeTagSize(tag) * 8;
  const std::uint64_t mask = bits == 64 ? ~0ULL : (1ULL << bits) - 1;
  return (base & ~mask) | (value & mask);
}

bool isHot(TypeTag tag) {
  return tag == TypeTag::F32 || tag == TypeTag::I32 || tag == TypeTag::U32 ||
         tag == TypeTag::I64 || tag == TypeTag::U64 || tag == TypeTag::Ptr;
}

/// The handler kind the instruction at `pc` must resolve to: quickened for
/// the hot tags (Ptr as U64), generic for the others.
void expectHandler(const clc::Program& p, std::size_t pc, TypeTag tag) {
  EXPECT_EQ(clc::handlerKind(p.handlers.at(pc)),
            isHot(tag) ? clc::HandlerKind::Quickened
                       : clc::HandlerKind::Generic)
      << clc::opName(p.code[pc].op) << "." << clc::typeTagName(tag);
}

std::uint64_t slotAt(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data(), 8);
  return v;
}

/// One launch of a memory kernel on fresh buffers: `in` holds `raw` in its
/// first 8 bytes, every other byte of both buffers is kUntouched.
struct MemRun {
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> in;
  clc::LaunchStats stats;
};

MemRun runMem(const clc::Program& p, std::uint64_t raw, std::uint64_t value,
              std::uint64_t fill) {
  MemRun r;
  r.out.assign(kBufferBytes, kUntouched);
  r.in.assign(kBufferBytes, kUntouched);
  std::memcpy(r.in.data(), &raw, 8);
  const std::vector<clc::Segment> segments = {
      clc::Segment{r.out.data(), r.out.size()},
      clc::Segment{r.in.data(), r.in.size()}};
  std::vector<clc::KernelArgValue> args(4);
  args[0].kind = clc::KernelArgValue::Kind::Buffer;
  args[1].kind = clc::KernelArgValue::Kind::Buffer;
  args[1].segmentIndex = 1;
  args[2].scalar = value;
  args[3].scalar = fill;
  r.stats = clc::executeKernel(p, "k", clc::NDRange{}, args, segments,
                               nullptr);
  return r;
}

bool untouchedFrom(const std::vector<std::uint8_t>& bytes, std::size_t from) {
  return std::all_of(bytes.begin() + std::ptrdiff_t(from), bytes.end(),
                     [](std::uint8_t b) { return b == kUntouched; });
}

TEST(VmEvalEquiv, GlobalLoadExtendsEachWidth) {
  for (const TypeTag tag : kTags) {
    std::vector<Instr> code = begin();
    load(code, kIn, TypeTag::Ptr);
    const std::size_t pc = code.size();
    code.push_back(I(Op::Load, tag));
    finish(code);
    const clc::Program p = kernel(code, {}, tag, /*globals=*/2);
    expectHandler(p, pc, tag);
    for (const std::uint64_t raw : kPatterns) {
      const MemRun r = runMem(p, raw, 0, 0);
      EXPECT_EQ(slotAt(r.out), extend(raw, tag))
          << clc::typeTagName(tag) << " raw=0x" << std::hex << raw;
      EXPECT_EQ(r.stats.globalBytesRead, clc::typeTagSize(tag));
      EXPECT_EQ(r.stats.globalBytesWritten, 8u);
    }
  }
}

TEST(VmEvalEquiv, GlobalStoreTruncatesToItsWidth) {
  for (const TypeTag tag : kTags) {
    std::vector<Instr> code = begin();
    load(code, kValue, TypeTag::U64);
    const std::size_t pc = code.size();
    code.push_back(I(Op::Store, tag));
    code.push_back(I(Op::Ret));
    const clc::Program p = kernel(code, {}, tag, /*globals=*/2);
    expectHandler(p, pc, tag);
    const std::size_t size = clc::typeTagSize(tag);
    for (const std::uint64_t value : kPatterns) {
      const MemRun r = runMem(p, 0, value, 0);
      const std::uint64_t untouched = 0x5a5a5a5a5a5a5a5aULL;
      EXPECT_EQ(slotAt(r.out), overlay(untouched, value, tag))
          << clc::typeTagName(tag) << " value=0x" << std::hex << value;
      EXPECT_TRUE(untouchedFrom(r.out, size)) << clc::typeTagName(tag);
      EXPECT_EQ(r.stats.globalBytesRead, 0u);
      EXPECT_EQ(r.stats.globalBytesWritten, size);
    }
  }
}

TEST(VmEvalEquiv, StoreKeepTruncatesAndKeepsTheWholeSlot) {
  // The kept slot is stored whole into `in`, so both halves are visible.
  for (const TypeTag tag : kTags) {
    std::vector<Instr> code;
    load(code, kIn, TypeTag::Ptr);
    load(code, kOut, TypeTag::Ptr);
    load(code, kValue, TypeTag::U64);
    code.push_back(I(Op::StoreKeep, tag));
    finish(code);
    const clc::Program p = kernel(code, {}, tag, /*globals=*/2);
    const std::size_t size = clc::typeTagSize(tag);
    for (const std::uint64_t value : kPatterns) {
      const MemRun r = runMem(p, 0, value, 0);
      EXPECT_EQ(slotAt(r.out), overlay(0x5a5a5a5a5a5a5a5aULL, value, tag))
          << clc::typeTagName(tag) << " value=0x" << std::hex << value;
      EXPECT_TRUE(untouchedFrom(r.out, size)) << clc::typeTagName(tag);
      EXPECT_EQ(slotAt(r.in), value) << clc::typeTagName(tag);
      EXPECT_EQ(r.stats.globalBytesRead, 0u);
      EXPECT_EQ(r.stats.globalBytesWritten, size + 8);
    }
  }
}

TEST(VmEvalEquiv, FrameStoreTruncatesAndFrameLoadExtends) {
  for (const TypeTag tag : kTags) {
    // store_frame.tag of a whole slot over `fill`, read back whole.
    std::vector<Instr> storeCode = begin();
    load(storeCode, kValue, TypeTag::U64);
    const std::size_t storePc = storeCode.size();
    storeCode.push_back(I(Op::StoreFrame, tag, kFill));
    storeCode.push_back(I(Op::LoadFrame, TypeTag::U64, kFill));
    finish(storeCode);
    const clc::Program storing = kernel(storeCode, {}, tag, /*globals=*/2);
    expectHandler(storing, storePc, tag);

    // load_frame.tag of the low bytes of a whole slot.
    std::vector<Instr> loadCode = begin();
    const std::size_t loadPc = loadCode.size();
    loadCode.push_back(I(Op::LoadFrame, tag, kValue));
    finish(loadCode);
    const clc::Program loading = kernel(loadCode, {}, tag, /*globals=*/2);
    expectHandler(loading, loadPc, tag);

    const std::uint64_t fill = 0xa5a5a5a5a5a5a5a5ULL;
    for (const std::uint64_t value : kPatterns) {
      const MemRun s = runMem(storing, 0, value, fill);
      EXPECT_EQ(slotAt(s.out), overlay(fill, value, tag))
          << "store_frame." << clc::typeTagName(tag) << " value=0x"
          << std::hex << value;
      const MemRun l = runMem(loading, 0, value, fill);
      EXPECT_EQ(slotAt(l.out), extend(value, tag))
          << "load_frame." << clc::typeTagName(tag) << " value=0x"
          << std::hex << value;
      // Frame accesses are private: only the result store is global.
      for (const MemRun* r : {&s, &l}) {
        EXPECT_EQ(r->stats.globalBytesRead, 0u);
        EXPECT_EQ(r->stats.globalBytesWritten, 8u);
      }
    }
  }
}

} // namespace
