// Bytecode representation produced by the clc code generator and executed
// by the VM. A compiled Program is what ocl::Program::build() yields and
// what SkelCL's on-disk kernel cache stores (see serialize.h).
//
// Execution model
// ---------------
// Stack machine with 64-bit operand slots. Floats occupy the low bits of a
// slot in their native width. Every instruction that cares about a type
// carries a TypeTag. Pointers are packed 64-bit handles:
//
//   bits 63..62  address space (0 private, 1 global/constant, 2 local)
//   bits 61..48  segment index  (global: kernel-arg buffer table entry)
//   bits 47..0   byte offset within the segment
//
// which lets the VM bounds-check every memory access against the segment's
// real size — out-of-bounds accesses raise a trap instead of corrupting
// memory, one deliberate quality-of-life improvement over real GPUs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace clc {

enum class TypeTag : std::uint8_t {
  I8, U8, I16, U16, I32, U32, I64, U64, F32, F64,
  Ptr, // alias of U64 with pointer semantics; kept for disassembly clarity
};

constexpr TypeTag kMaxTypeTag = TypeTag::Ptr;

/// Byte width of a value of `tag` in memory (its slot holds it widened).
constexpr std::size_t typeTagSize(TypeTag tag) noexcept {
  switch (tag) {
    case TypeTag::I8:
    case TypeTag::U8: return 1;
    case TypeTag::I16:
    case TypeTag::U16: return 2;
    case TypeTag::I32:
    case TypeTag::U32:
    case TypeTag::F32: return 4;
    default: return 8;
  }
}

const char* typeTagName(TypeTag tag) noexcept;

enum class Op : std::uint8_t {
  Nop,
  PushConst,   // a = constant pool index; pushes 64-bit slot
  PushFrameAddr, // a = byte offset in current frame; pushes Private pointer
  PushLocalAddr, // a = byte offset in static __local area; pushes Local ptr
  Dup,         // duplicate top slot
  Pop,         // discard top slot
  Swap,        // swap two top slots

  Rot3,        // [a b c] -> [b c a] (brings the third slot to the top)

  Load,        // tag; pops ptr, pushes loaded value
  Store,       // tag; pops value then ptr, stores value
  StoreKeep,   // like Store but pushes the stored value back
  MemCopy,     // a = byte count; pops src ptr then dst ptr

  // Arithmetic (tag-typed). Pops rhs then lhs, pushes result.
  Add, Sub, Mul, Div, Rem,
  Neg,         // unary
  Shl, Shr, BitAnd, BitOr, BitXor,
  BitNot,      // unary

  // Comparisons: pop rhs, lhs; push i32 0/1.
  CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
  LogNot,      // i32: pushes 1 if zero else 0

  Conv,        // a = (from << 8) | to; converts top of stack

  Jmp,         // a = target pc
  Jz,          // a = target pc; pops i32 condition
  Jnz,         // a = target pc; pops i32 condition

  Call,        // a = function index
  CallBuiltin, // a = builtin id, tag = operand TypeTag (F32/F64/ints)
  Barrier,     // work-group barrier; the VM yields the work-item here
  Ret,         // return without value
  RetVal,      // return with scalar value on stack
  RetStruct,   // a = byte count; pops value address; copies to sret pointer

  Trap,        // a = trap code (unreachable, etc.)

  // --- superinstructions (emitted only by the optimizer, opt.h) ------------
  //
  // Each one is semantically identical to the instruction sequence it
  // replaces and, through Program::cycleCosts, is charged exactly the
  // cycles of that sequence — optimization is a host-side speedup, never
  // a timing-model change.
  LoadFrame,   // a = frame byte offset; pushes canon(load) — PFA+Load
  StoreFrame,  // a = frame byte offset; pops value, stores — PFA+...+Store
  BinConst,    // a = (binop << 20) | const index; rhs from the pool
  FrameBin,    // a = (binop << 20) | frame offset; rhs loaded from frame
  LoadBin,     // a = binop; pops ptr, loads rhs, pops lhs — Load+binop
  CmpJz,       // a = (cmpIdx << 28) | target; jump when compare is false
  CmpJnz,      // a = (cmpIdx << 28) | target; jump when compare is true
  MulAdd,      // pops rhs, lhs, acc; pushes acc + lhs*rhs (two-step, no fma)
  FrameBin2,   // a = (binop << 24) | (lhs off << 12) | rhs off; both operands
               // loaded from the frame — LoadFrame+FrameBin
};

constexpr Op kMaxOp = Op::FrameBin2;

/// True for binary arithmetic/bitwise ops embeddable in BinConst/FrameBin.
constexpr bool isBinaryArithOp(Op op) noexcept {
  return (op >= Op::Add && op <= Op::Rem) ||
         (op >= Op::Shl && op <= Op::BitXor);
}

/// True for the six comparison ops.
constexpr bool isCompareOp(Op op) noexcept {
  return op >= Op::CmpEq && op <= Op::CmpGe;
}

// Encoding helpers for the packed superinstruction immediates.
constexpr int kEmbedOpShift = 20; // BinConst/FrameBin: a = (op << 20) | operand
constexpr std::int32_t kEmbedOperandMask = (1 << kEmbedOpShift) - 1;
constexpr int kCmpJumpShift = 28; // CmpJz/CmpJnz: a = (cmpIdx << 28) | target
constexpr std::int32_t kCmpJumpTargetMask = (1 << kCmpJumpShift) - 1;

constexpr std::int32_t encodeEmbedOp(Op op, std::int32_t operand) noexcept {
  return (std::int32_t(op) << kEmbedOpShift) | operand;
}
constexpr Op embeddedOp(std::int32_t a) noexcept {
  return Op(a >> kEmbedOpShift);
}
constexpr std::int32_t embeddedOperand(std::int32_t a) noexcept {
  return a & kEmbedOperandMask;
}
constexpr std::int32_t encodeCmpJump(Op cmp, std::int32_t target) noexcept {
  return ((std::int32_t(cmp) - std::int32_t(Op::CmpEq)) << kCmpJumpShift) |
         target;
}
constexpr Op cmpFromJump(std::int32_t a) noexcept {
  return Op(std::int32_t(Op::CmpEq) + (a >> kCmpJumpShift));
}
constexpr std::int32_t cmpJumpTarget(std::int32_t a) noexcept {
  return a & kCmpJumpTargetMask;
}

// FrameBin2: a = (binop << 24) | (lhs offset << 12) | rhs offset. Frame
// offsets must fit 12 bits; the optimizer skips the fusion otherwise.
constexpr int kFrame2OpShift = 24;
constexpr int kFrame2XShift = 12;
constexpr std::int32_t kFrame2OffsetMask = (1 << kFrame2XShift) - 1;

constexpr std::int32_t encodeFrame2(Op op, std::int32_t x,
                                    std::int32_t y) noexcept {
  return (std::int32_t(op) << kFrame2OpShift) | (x << kFrame2XShift) | y;
}
constexpr Op frame2Op(std::int32_t a) noexcept {
  return Op(a >> kFrame2OpShift);
}
constexpr std::int32_t frame2X(std::int32_t a) noexcept {
  return (a >> kFrame2XShift) & kFrame2OffsetMask;
}
constexpr std::int32_t frame2Y(std::int32_t a) noexcept {
  return a & kFrame2OffsetMask;
}

struct Instr {
  Op op = Op::Nop;
  TypeTag tag = TypeTag::I32;
  std::int32_t a = 0;
};
static_assert(sizeof(Instr) == 8);

// --- the opcode table ---------------------------------------------------------

/// Where control goes after an instruction.
enum class Flow : std::uint8_t {
  Next,   // pc + 1
  Yield,  // pc + 1 once the work-group meets; ends a straight-line region
  Branch, // branchTarget() or pc + 1
  Jump,   // branchTarget() only
  Exit,   // leaves the function (return) or the work-item (trap)
};

/// Every fact about an opcode that does not depend on its operand. One row
/// per Op (bytecode.cpp); an opcode outside the enum reads as a "?" row
/// that ends every region, which the verifier rejects.
struct OpInfo {
  Op op;
  const char* name;
  /// Device cycles per execution. A superinstruction's is the sum of the
  /// rows it replaces, minus an embedded binop, which instrCycleCost()
  /// adds from that binop's own row.
  std::uint8_t cycles;
  /// Operand-stack slots popped, then pushed; Call and CallBuiltin take
  /// theirs from the callee (stackEffect, verify.h).
  std::uint8_t pops;
  std::uint8_t pushes;
  Flow flow;
};

const OpInfo& opInfo(Op op) noexcept;

inline const char* opName(Op op) noexcept { return opInfo(op).name; }

/// The row's base cost, without any embedded op (see instrCycleCost).
inline std::uint32_t opCycleCost(Op op) noexcept { return opInfo(op).cycles; }

/// Cost of one concrete instruction: its row plus the row of an embedded
/// binop (BinConst, FrameBin, LoadBin, FrameBin2), so a superinstruction
/// costs exactly the sequence it replaces. The verifier fills
/// Program::cycleCosts from this; the optimizer maintains it from there.
std::uint32_t instrCycleCost(const Instr& instr) noexcept;

/// True when `op` carries a branch target: Flow::Branch or Flow::Jump.
inline bool hasBranchTarget(Op op) noexcept {
  const Flow flow = opInfo(op).flow;
  return flow == Flow::Branch || flow == Flow::Jump;
}

/// True when control can continue at pc + 1.
inline bool fallsThrough(Op op) noexcept {
  const Flow flow = opInfo(op).flow;
  return flow == Flow::Next || flow == Flow::Yield || flow == Flow::Branch;
}

/// The target pc of an instruction with hasBranchTarget(in.op).
constexpr std::int32_t branchTarget(const Instr& in) noexcept {
  return in.op == Op::CmpJz || in.op == Op::CmpJnz ? cmpJumpTarget(in.a)
                                                   : in.a;
}

constexpr void setBranchTarget(Instr& in, std::int32_t target) noexcept {
  in.a = in.op == Op::CmpJz || in.op == Op::CmpJnz
             ? encodeCmpJump(cmpFromJump(in.a), target)
             : target;
}

/// How a kernel argument must be supplied by the host.
enum class ParamKind : std::uint8_t {
  GlobalPtr, // buffer argument
  LocalPtr,  // host supplies a byte size; VM allocates per work-group
  Scalar,    // by-value scalar of `size` bytes
  Struct,    // by-value struct of `size` bytes
};

struct ParamInfo {
  std::string name;
  ParamKind kind = ParamKind::Scalar;
  std::uint32_t size = 0;        // scalar/struct byte size
  TypeTag scalarTag = TypeTag::I32; // valid when kind == Scalar
  /// Frame offset where the parameter's storage lives in the callee frame.
  std::uint32_t frameOffset = 0;
};

struct FunctionInfo {
  std::string name;
  std::uint32_t codeStart = 0;
  std::uint32_t codeEnd = 0;
  std::uint32_t frameSize = 0;
  std::vector<ParamInfo> params;
  bool returnsValue = false;   // scalar return
  bool returnsStruct = false;  // caller passes hidden sret pointer
  std::uint32_t returnSize = 0;
  bool isKernel = false;
};

/// Execution bounds of one kernel, proven by clc::verify (verify.h) over
/// the kernel's whole call graph. They are not serialized: loading a
/// program re-verifies it and recomputes them. The VM sizes each
/// work-item's state to exactly these bounds and runs without checks.
struct KernelBounds {
  std::uint32_t operands = 0;   // deepest operand stack, in slots
  std::uint32_t arenaBytes = 0; // largest private arena (all live frames)
  std::uint32_t callDepth = 0;  // most live frames; 0 = not verified
  bool hasBarrier = false;      // some reachable code executes a barrier
};

struct KernelInfo {
  std::string name;
  std::uint32_t functionIndex = 0;
  /// Bytes of statically declared __local variables.
  std::uint32_t staticLocalSize = 0;
  KernelBounds bounds;
};

/// A fully compiled translation unit.
struct Program {
  static constexpr std::uint32_t kSerialVersion = 4;

  std::vector<Instr> code;
  std::vector<std::uint64_t> constants;
  std::vector<FunctionInfo> functions;
  std::vector<KernelInfo> kernels;
  std::string sourceHash; // SHA-256 hex of the source text
  /// Per-instruction cycle cost, what the VM charges per dispatch. The
  /// verifier fills an empty table from instrCycleCost(); the optimizer
  /// maintains it so optimized code is charged exactly the cycles of the
  /// unoptimized sequence it replaces (timing-invariance contract, opt.h).
  std::vector<std::uint32_t> cycleCosts;
  /// Optimization level the code was produced at (0 = raw codegen output).
  std::uint8_t optLevel = 0;

  const KernelInfo* findKernel(const std::string& name) const noexcept {
    for (const auto& k : kernels) {
      if (k.name == name) {
        return &k;
      }
    }
    return nullptr;
  }

  const FunctionInfo* findFunction(const std::string& name) const noexcept {
    for (const auto& f : functions) {
      if (f.name == name) {
        return &f;
      }
    }
    return nullptr;
  }
};

// --- pointer packing --------------------------------------------------------

// Space code 0 is deliberately unused: a zero pointer value (null) then
// decodes to an invalid space and traps instead of aliasing private
// memory at offset 0.
enum class MemSpace : std::uint8_t {
  Invalid = 0,
  Global = 1,
  Local = 2,
  Private = 3,
};

constexpr std::uint64_t packPointer(MemSpace space, std::uint64_t segment,
                                    std::uint64_t offset) noexcept {
  return (std::uint64_t(space) << 62) | ((segment & 0x3fff) << 48) |
         (offset & 0xffffffffffffULL);
}

constexpr MemSpace pointerSpace(std::uint64_t ptr) noexcept {
  return MemSpace((ptr >> 62) & 0x3);
}

constexpr std::uint64_t pointerSegment(std::uint64_t ptr) noexcept {
  return (ptr >> 48) & 0x3fff;
}

constexpr std::uint64_t pointerOffset(std::uint64_t ptr) noexcept {
  return ptr & 0xffffffffffffULL;
}

/// Disassembles the program for debugging and golden tests.
std::string disassemble(const Program& program);

} // namespace clc
