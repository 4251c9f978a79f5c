#include "clc/bytecode.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "clc/dispatch.h"

namespace clc {

const char* typeTagName(TypeTag tag) noexcept {
  switch (tag) {
    case TypeTag::I8: return "i8";
    case TypeTag::U8: return "u8";
    case TypeTag::I16: return "i16";
    case TypeTag::U16: return "u16";
    case TypeTag::I32: return "i32";
    case TypeTag::U32: return "u32";
    case TypeTag::I64: return "i64";
    case TypeTag::U64: return "u64";
    case TypeTag::F32: return "f32";
    case TypeTag::F64: return "f64";
    case TypeTag::Ptr: return "ptr";
  }
  return "?";
}

namespace {

constexpr OpInfo row(Op op, const char* name, std::uint32_t cycles,
                     std::uint8_t pops, std::uint8_t pushes,
                     Flow flow = Flow::Next) {
  return {op, name, std::uint8_t(cycles), pops, pushes, flow};
}

constexpr OpInfo kPlainOps[] = {
    row(Op::Nop, "nop", 0, 0, 0),
    row(Op::PushConst, "push_const", 1, 0, 1),
    row(Op::PushFrameAddr, "push_frame_addr", 1, 0, 1),
    row(Op::PushLocalAddr, "push_local_addr", 1, 0, 1),
    // Stack shuffling models register traffic: free.
    row(Op::Dup, "dup", 0, 1, 2),
    row(Op::Pop, "pop", 0, 1, 0),
    row(Op::Swap, "swap", 0, 2, 2),
    row(Op::Rot3, "rot3", 0, 3, 3),
    // Private/local latency; a global access adds 8 more in the VM.
    row(Op::Load, "load", 2, 1, 1),
    row(Op::Store, "store", 2, 2, 0),
    row(Op::StoreKeep, "store_keep", 2, 2, 1),
    row(Op::MemCopy, "memcopy", 4, 2, 0),
    row(Op::Add, "add", 1, 2, 1),
    row(Op::Sub, "sub", 1, 2, 1),
    row(Op::Mul, "mul", 1, 2, 1),
    row(Op::Div, "div", 8, 2, 1),
    row(Op::Rem, "rem", 8, 2, 1),
    row(Op::Neg, "neg", 1, 1, 1),
    row(Op::Shl, "shl", 1, 2, 1),
    row(Op::Shr, "shr", 1, 2, 1),
    row(Op::BitAnd, "and", 1, 2, 1),
    row(Op::BitOr, "or", 1, 2, 1),
    row(Op::BitXor, "xor", 1, 2, 1),
    row(Op::BitNot, "not", 1, 1, 1),
    row(Op::CmpEq, "cmp_eq", 1, 2, 1),
    row(Op::CmpNe, "cmp_ne", 1, 2, 1),
    row(Op::CmpLt, "cmp_lt", 1, 2, 1),
    row(Op::CmpLe, "cmp_le", 1, 2, 1),
    row(Op::CmpGt, "cmp_gt", 1, 2, 1),
    row(Op::CmpGe, "cmp_ge", 1, 2, 1),
    row(Op::LogNot, "log_not", 1, 1, 1),
    row(Op::Conv, "conv", 1, 1, 1),
    row(Op::Jmp, "jmp", 1, 0, 0, Flow::Jump),
    row(Op::Jz, "jz", 1, 1, 0, Flow::Branch),
    row(Op::Jnz, "jnz", 1, 1, 0, Flow::Branch),
    // Calls take their stack effect from the callee (stackEffect); a
    // builtin call is charged by the builtin's own row.
    row(Op::Call, "call", 4, 0, 0),
    row(Op::CallBuiltin, "call_builtin", 0, 0, 1),
    row(Op::Barrier, "barrier", 16, 0, 0, Flow::Yield),
    row(Op::Ret, "ret", 4, 0, 0, Flow::Exit),
    row(Op::RetVal, "ret_val", 4, 1, 1, Flow::Exit),
    row(Op::RetStruct, "ret_struct", 4, 1, 0, Flow::Exit),
    row(Op::Trap, "trap", 0, 0, 0, Flow::Exit),
};

constexpr std::uint32_t cost(Op op) {
  return kPlainOps[std::size_t(op)].cycles;
}

constexpr std::uint32_t kLoadFrameCycles =
    cost(Op::PushFrameAddr) + cost(Op::Load);

/// Superinstructions (opt.h): each row costs the sequence it replaces.
constexpr OpInfo kSuperOps[] = {
    row(Op::LoadFrame, "load_frame", kLoadFrameCycles, 0, 1),
    row(Op::StoreFrame, "store_frame",
        cost(Op::PushFrameAddr) + cost(Op::Store), 1, 0),
    row(Op::BinConst, "bin_const", cost(Op::PushConst), 1, 1),
    row(Op::FrameBin, "frame_bin", kLoadFrameCycles, 1, 1),
    row(Op::LoadBin, "load_bin", cost(Op::Load), 2, 1),
    // Every compare costs CmpEq's row (asserted below).
    row(Op::CmpJz, "cmp_jz", cost(Op::CmpEq) + cost(Op::Jz), 2, 0,
        Flow::Branch),
    row(Op::CmpJnz, "cmp_jnz", cost(Op::CmpEq) + cost(Op::Jnz), 2, 0,
        Flow::Branch),
    row(Op::MulAdd, "mul_add", cost(Op::Mul) + cost(Op::Add), 3, 1),
    row(Op::FrameBin2, "frame_bin2", 2 * kLoadFrameCycles, 0, 1),
};

constexpr std::size_t kSuperBase = std::size_t(Op::LoadFrame);

constexpr bool rowsInEnumOrder() {
  for (std::size_t i = 0; i < std::size(kPlainOps); ++i) {
    if (kPlainOps[i].op != Op(i)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < std::size(kSuperOps); ++i) {
    if (kSuperOps[i].op != Op(kSuperBase + i)) {
      return false;
    }
  }
  return std::size(kPlainOps) == kSuperBase &&
         kSuperBase + std::size(kSuperOps) == std::size_t(kMaxOp) + 1;
}
static_assert(rowsInEnumOrder(), "one row per Op, in enum order");

constexpr bool comparesCostAlike() {
  for (Op op = Op::CmpEq; op <= Op::CmpGe; op = Op(std::size_t(op) + 1)) {
    if (cost(op) != cost(Op::CmpEq)) {
      return false;
    }
  }
  return true;
}
static_assert(comparesCostAlike(), "CmpJz/CmpJnz charge CmpEq's row");

/// Conservative for analyses that meet unverified code: a region ends
/// here, but control may still continue at pc + 1.
constexpr OpInfo kUnknownOp = row(Op::Nop, "?", 1, 0, 0, Flow::Yield);

/// Where disassemble()'s dispatch column starts.
constexpr std::streamoff kDispatchColumn = 40;

} // namespace

const OpInfo& opInfo(Op op) noexcept {
  if (std::size_t(op) < kSuperBase) {
    return kPlainOps[std::size_t(op)];
  }
  return op <= kMaxOp ? kSuperOps[std::size_t(op) - kSuperBase] : kUnknownOp;
}

std::uint32_t instrCycleCost(const Instr& instr) noexcept {
  const std::uint32_t base = opCycleCost(instr.op);
  switch (instr.op) {
    case Op::BinConst:
    case Op::FrameBin:
      return base + opCycleCost(embeddedOp(instr.a));
    case Op::LoadBin:
      return base + opCycleCost(Op(instr.a));
    case Op::FrameBin2:
      return base + opCycleCost(frame2Op(instr.a));
    default:
      return base;
  }
}

std::string disassemble(const Program& program) {
  const bool withDispatch =
      program.cycleCosts.size() == program.code.size() &&
      program.handlers.size() == program.code.size();
  std::ostringstream out;
  for (const FunctionInfo& f : program.functions) {
    out << (f.isKernel ? "kernel " : "func ") << f.name << " frame="
        << f.frameSize << ":\n";
    for (std::uint32_t pc = f.codeStart; pc < f.codeEnd; ++pc) {
      const Instr& instr = program.code[pc];
      const auto start = out.tellp();
      out << "  " << pc << ": " << opName(instr.op) << "."
          << typeTagName(instr.tag);
      switch (instr.op) {
        case Op::PushConst:
          out << " #" << instr.a << " ("
              << program.constants[std::size_t(instr.a)] << ")";
          break;
        case Op::Call:
          out << " " << program.functions[std::size_t(instr.a)].name;
          break;
        case Op::BinConst:
          out << " " << opName(embeddedOp(instr.a)) << " #"
              << embeddedOperand(instr.a) << " ("
              << program.constants[std::size_t(embeddedOperand(instr.a))]
              << ")";
          break;
        case Op::FrameBin:
          out << " " << opName(embeddedOp(instr.a)) << " @"
              << embeddedOperand(instr.a);
          break;
        case Op::LoadBin:
          out << " " << opName(Op(instr.a));
          break;
        case Op::FrameBin2:
          out << " " << opName(frame2Op(instr.a)) << " @" << frame2X(instr.a)
              << " @" << frame2Y(instr.a);
          break;
        case Op::CmpJz:
        case Op::CmpJnz:
          out << " " << opName(cmpFromJump(instr.a)) << " -> "
              << cmpJumpTarget(instr.a);
          break;
        default:
          if (instr.a != 0) {
            out << " " << instr.a;
          }
          break;
      }
      if (withDispatch) {
        const auto width = std::streamoff(out.tellp() - start);
        out << std::string(std::size_t(std::max<std::streamoff>(
                               kDispatchColumn - width, 1)),
                           ' ')
            << "cycles " << program.cycleCosts[pc] << ", "
            << handlerKindName(handlerKind(program.handlers[pc]));
      }
      out << "\n";
    }
  }
  return out.str();
}

} // namespace clc
