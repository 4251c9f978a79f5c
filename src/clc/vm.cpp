#include "clc/vm.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <iterator>

#include "clc/builtins.h"
#include "clc/eval.h"

namespace clc {

namespace {

// Scalar semantics (slot helpers, canon, convert, arithmetic, compare)
// live in clc/eval.h so the optimizer folds with the VM's exact behavior.
using namespace clc::eval;

// --- per-launch immutable context ---------------------------------------------

struct LaunchContext {
  const Program* program = nullptr;
  const std::vector<Segment>* segments = nullptr;
  const FunctionInfo* kernelFunc = nullptr;
  const KernelInfo* kernel = nullptr;
  /// The kernel's frame with every argument in place, built once per
  /// launch; each work-item starts from a copy (frameSize bytes).
  std::vector<std::uint8_t> argFrame;
  std::uint64_t totalLocalSize = 0;
  NDRange range;
  std::size_t groupCount[3] = {1, 1, 1};
  /// Program::cycleCosts, one entry per instruction (verify.h).
  const std::uint32_t* costs = nullptr;
};

struct Frame {
  std::uint32_t returnPc = 0;
  std::uint32_t frameBase = 0; // base of *this* frame in the private arena
};

enum class ItemStatus { Running, AtBarrier, Done };

template <typename T>
T readAs(const std::uint8_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void writeAs(std::uint8_t* p, T v) noexcept {
  std::memcpy(p, &v, sizeof(T));
}

/// Loads a `tag`-typed value into a canonical slot with one fixed-width
/// copy (what memcpy of typeTagSize bytes followed by canon() computes).
/// The 32- and 64-bit tags are tested first, as branches rather than a
/// jump table.
inline std::uint64_t loadSlot(const std::uint8_t* p, TypeTag tag) noexcept {
  if (tag == TypeTag::F32 || tag == TypeTag::U32) {
    return readAs<std::uint32_t>(p);
  }
  if (tag == TypeTag::I32) {
    return std::uint64_t(std::int64_t(readAs<std::int32_t>(p)));
  }
  switch (tag) {
    case TypeTag::I8: return std::uint64_t(std::int64_t(readAs<std::int8_t>(p)));
    case TypeTag::U8: return *p;
    case TypeTag::I16:
      return std::uint64_t(std::int64_t(readAs<std::int16_t>(p)));
    case TypeTag::U16: return readAs<std::uint16_t>(p);
    default: return readAs<std::uint64_t>(p);
  }
}

/// Stores the low typeTagSize(tag) bytes of a slot with one fixed-width copy.
inline void storeSlot(std::uint8_t* p, std::uint64_t v, TypeTag tag) noexcept {
  const std::size_t size = typeTagSize(tag);
  if (size == 4) {
    writeAs(p, std::uint32_t(v));
  } else if (size == 8) {
    writeAs(p, v);
  } else if (size == 2) {
    writeAs(p, std::uint16_t(v));
  } else {
    *p = std::uint8_t(v);
  }
}

// Every opcode's handler label in ItemVM::resume, in Op order.
#define CLC_VM_OPS(X)                                                     \
  X(Nop) X(PushConst) X(PushFrameAddr) X(PushLocalAddr) X(Dup) X(Pop)     \
  X(Swap) X(Rot3) X(Load) X(Store) X(StoreKeep) X(MemCopy) X(Add) X(Sub)  \
  X(Mul) X(Div) X(Rem) X(Neg) X(Shl) X(Shr) X(BitAnd) X(BitOr) X(BitXor)  \
  X(BitNot) X(CmpEq) X(CmpNe) X(CmpLt) X(CmpLe) X(CmpGt) X(CmpGe)         \
  X(LogNot) X(Conv) X(Jmp) X(Jz) X(Jnz) X(Call) X(CallBuiltin) X(Barrier) \
  X(Ret) X(RetVal) X(RetStruct) X(Trap) X(LoadFrame) X(StoreFrame)       \
  X(BinConst) X(FrameBin) X(LoadBin) X(CmpJz) X(CmpJnz) X(MulAdd)        \
  X(FrameBin2)

#define CLC_VM_OP(name) Op::name,
constexpr Op kHandlerOps[] = {CLC_VM_OPS(CLC_VM_OP)};
#undef CLC_VM_OP

constexpr bool handlersInOpOrder() {
  for (std::size_t i = 0; i < std::size(kHandlerOps); ++i) {
    if (kHandlerOps[i] != Op(i)) {
      return false;
    }
  }
  return std::size(kHandlerOps) == std::size_t(kMaxOp) + 1;
}
static_assert(handlersInOpOrder(),
              "CLC_VM_OPS must list every Op once, in enum order");

// ItemVM::resume reads each Instr as one little-endian 8-byte word.
static_assert(std::endian::native == std::endian::little &&
              offsetof(Instr, op) == 0 && offsetof(Instr, tag) == 1 &&
              offsetof(Instr, a) == 4 && sizeof(Instr) == 8);

/// Storage one work-item runs on, sized to its kernel's KernelBounds.
struct ItemStorage {
  std::uint64_t* operands = nullptr;
  std::uint8_t* arena = nullptr;
  Frame* frames = nullptr;
};

/// One work-item's execution state: a resumable interpreter. It runs on
/// storage sized to the bounds clc::verify proved for the kernel, so the
/// operand stack, the frame stack and frame-relative accesses need no
/// runtime checks; pointers in flight are still bounds-checked.
class ItemVM {
public:
  void init(const LaunchContext& ctx, const ItemStorage& storage,
            std::uint8_t* localBase, std::size_t localSize,
            const std::size_t globalId[3], const std::size_t localId[3],
            const std::size_t groupId[3]) {
    ctx_ = &ctx;
    localBase_ = localBase;
    localSize_ = localSize;
    for (int d = 0; d < 3; ++d) {
      globalId_[d] = globalId[d];
      localId_[d] = localId[d];
      groupId_[d] = groupId[d];
    }
    cycles_ = 0;
    instructions_ = 0;
    bytesRead_ = 0;
    bytesWritten_ = 0;
    atomics_ = 0;
    cachedSeg_ = ~0u;
    status_ = ItemStatus::Running;

    const FunctionInfo& f = *ctx.kernelFunc;
    sp_ = operands_ = storage.operands;
    arena_ = storage.arena;
    frames_ = storage.frames;
    std::memcpy(arena_, ctx.argFrame.data(), f.frameSize);
    arenaTop_ = f.frameSize;
    frames_[0] = Frame{~0u, 0};
    frameCount_ = 1;
    pc_ = f.codeStart;
  }

  ItemStatus status() const noexcept { return status_; }
  std::uint64_t cycles() const noexcept { return cycles_; }
  std::uint64_t instructions() const noexcept { return instructions_; }
  std::uint64_t bytesRead() const noexcept { return bytesRead_; }
  std::uint64_t bytesWritten() const noexcept { return bytesWritten_; }
  std::uint64_t atomics() const noexcept { return atomics_; }

  /// Runs until completion or the next barrier.
  ///
  /// Direct-threaded: every handler ends by fetching the next instruction
  /// and jumping through kDispatch itself, so each opcode gets its own
  /// indirect branch. The verifier proved every opcode <= kMaxOp, so the
  /// table lookup needs no range check. The function is aligned so that
  /// unrelated code moving around it cannot shift the hot loop.
  [[gnu::noinline, gnu::aligned(64)]] void resume() {
    status_ = ItemStatus::Running;
    const Program& program = *ctx_->program;
    const Instr* const code = program.code.data();
    const std::uint64_t* const constants = program.constants.data();
    const std::uint32_t* const costs = ctx_->costs;
    // The hot state lives in locals. It is published to the members only
    // around what reads it there: calls, builtins and suspension. The
    // instruction/cycle counters are flushed on suspension; resolve() and
    // doBuiltin() add their dynamic extras to cycles_ directly.
    std::uint32_t pc = pc_;
    std::uint64_t* sp = sp_;
    std::uint8_t* fp = arena_ + frames_[frameCount_ - 1].frameBase;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    // The current instruction as one 8-byte word (layout asserted at
    // namespace scope): the opcode selects the handler, which decodes the
    // tag and immediate it needs.
    std::uint64_t word = 0;
    // Each helper captures only locals and is force-inlined, so the hot
    // state stays in registers.
#define CLC_VM_INLINE __attribute__((always_inline))
    const auto push = [&](std::uint64_t v) CLC_VM_INLINE { *sp++ = v; };
    const auto pop = [&]() CLC_VM_INLINE { return *--sp; };
    const auto publish = [&]() CLC_VM_INLINE {
      pc_ = pc;
      sp_ = sp;
    };
    const auto reload = [&]() CLC_VM_INLINE {
      pc = pc_;
      sp = sp_;
      fp = arena_ + frames_[frameCount_ - 1].frameBase;
    };
    const auto suspend = [&]() CLC_VM_INLINE {
      pc_ = pc;
      sp_ = sp;
      instructions_ += instructions;
      cycles_ += cycles;
    };
    // Pops the current frame; true when the kernel itself returned.
    const auto ret = [&]() CLC_VM_INLINE {
      if (frameCount_ == 1) {
        status_ = ItemStatus::Done;
        return true;
      }
      const Frame& done = frames_[--frameCount_];
      arenaTop_ = done.frameBase;
      pc = done.returnPc;
      fp = arena_ + frames_[frameCount_ - 1].frameBase;
      return false;
    };
    const auto tag = [&]() CLC_VM_INLINE {
      return TypeTag(std::uint8_t(word >> 8));
    };
    const auto imm = [&]() CLC_VM_INLINE { return std::int32_t(word >> 32); };
#undef CLC_VM_INLINE

#define CLC_VM_LABEL(name) &&op_##name,
    static const void* const kDispatch[] = {CLC_VM_OPS(CLC_VM_LABEL)};
#undef CLC_VM_LABEL
    static_assert(std::size(kDispatch) == std::size_t(kMaxOp) + 1);

#define CLC_VM_NEXT()                   \
  do {                                  \
    std::memcpy(&word, code + pc, 8);   \
    cycles += costs[pc];                \
    ++pc;                               \
    ++instructions;                     \
    goto* kDispatch[word & 0xff];       \
  } while (false)
// One handler per binary arithmetic op and per compare, so the op is a
// constant and evalArith/evalCompare inline to the tag's path.
#define CLC_VM_ARITH(name)                        \
  op_##name : {                                   \
    const std::uint64_t rhs = pop();              \
    sp[-1] = arith(Op::name, tag(), sp[-1], rhs); \
    CLC_VM_NEXT();                                \
  }
#define CLC_VM_COMPARE(name)                                \
  op_##name : {                                             \
    const std::uint64_t rhs = pop();                        \
    sp[-1] = compare(Op::name, tag(), sp[-1], rhs) ? 1 : 0; \
    CLC_VM_NEXT();                                          \
  }

    CLC_VM_NEXT();

  op_Nop:
    CLC_VM_NEXT();
  op_PushConst:
    push(constants[std::size_t(imm())]);
    CLC_VM_NEXT();
  op_PushFrameAddr:
    push(packPointer(MemSpace::Private, 0,
                     std::uint64_t(fp - arena_) + std::uint64_t(imm())));
    CLC_VM_NEXT();
  op_PushLocalAddr:
    push(packPointer(MemSpace::Local, 0, std::uint64_t(imm())));
    CLC_VM_NEXT();
  op_Dup: {
    const std::uint64_t v = sp[-1];
    push(v);
    CLC_VM_NEXT();
  }
  op_Pop:
    --sp;
    CLC_VM_NEXT();
  op_Swap:
    std::swap(sp[-1], sp[-2]);
    CLC_VM_NEXT();
  op_Rot3: {
    // [a b c] -> [b c a]
    const std::uint64_t a = sp[-3];
    sp[-3] = sp[-2];
    sp[-2] = sp[-1];
    sp[-1] = a;
    CLC_VM_NEXT();
  }
  op_Load: {
    const std::uint64_t ptr = pop();
    push(loadSlot(resolve(ptr, typeTagSize(tag()), /*write=*/false),
                  tag()));
    CLC_VM_NEXT();
  }
  op_Store: {
    const std::uint64_t v = pop();
    const std::uint64_t ptr = pop();
    storeSlot(resolve(ptr, typeTagSize(tag()), /*write=*/true), v,
              tag());
    CLC_VM_NEXT();
  }
  op_StoreKeep: {
    const std::uint64_t v = pop();
    const std::uint64_t ptr = pop();
    storeSlot(resolve(ptr, typeTagSize(tag()), /*write=*/true), v,
              tag());
    push(v);
    CLC_VM_NEXT();
  }
  op_MemCopy: {
    const std::uint64_t src = pop();
    const std::uint64_t dst = pop();
    const auto size = std::size_t(imm());
    const std::uint8_t* s = resolve(src, size, /*write=*/false);
    std::uint8_t* d = resolve(dst, size, /*write=*/true);
    std::memmove(d, s, size);
    CLC_VM_NEXT();
  }
  CLC_VM_ARITH(Add)
  CLC_VM_ARITH(Sub)
  CLC_VM_ARITH(Mul)
  CLC_VM_ARITH(Div)
  CLC_VM_ARITH(Rem)
  CLC_VM_ARITH(Shl)
  CLC_VM_ARITH(Shr)
  CLC_VM_ARITH(BitAnd)
  CLC_VM_ARITH(BitOr)
  CLC_VM_ARITH(BitXor)
  op_Neg:
    sp[-1] = evalNeg(tag(), sp[-1]);
    CLC_VM_NEXT();
  op_BitNot:
    sp[-1] = canon(~sp[-1], tag());
    CLC_VM_NEXT();
  CLC_VM_COMPARE(CmpEq)
  CLC_VM_COMPARE(CmpNe)
  CLC_VM_COMPARE(CmpLt)
  CLC_VM_COMPARE(CmpLe)
  CLC_VM_COMPARE(CmpGt)
  CLC_VM_COMPARE(CmpGe)
  op_LogNot:
    sp[-1] = sp[-1] == 0 ? 1 : 0;
    CLC_VM_NEXT();
  op_Conv:
    sp[-1] = convert(sp[-1], TypeTag((imm() >> 8) & 0xff),
                     TypeTag(imm() & 0xff));
    CLC_VM_NEXT();
  op_Jmp:
    pc = std::uint32_t(imm());
    CLC_VM_NEXT();
  op_Jz:
    if (pop() == 0) pc = std::uint32_t(imm());
    CLC_VM_NEXT();
  op_Jnz:
    if (pop() != 0) pc = std::uint32_t(imm());
    CLC_VM_NEXT();
  op_Call:
    publish();
    doCall(std::uint32_t(imm()));
    reload();
    CLC_VM_NEXT();
  op_CallBuiltin:
    publish();
    doBuiltin(Builtin(imm()), tag());
    reload();
    CLC_VM_NEXT();
  op_Barrier:
    status_ = ItemStatus::AtBarrier;
    suspend();
    return;
  op_Ret:
    if (ret()) {
      suspend();
      return;
    }
    CLC_VM_NEXT();
  op_RetVal: {
    const std::uint64_t v = pop();
    const bool done = ret();
    push(v);
    if (done) {
      suspend();
      return;
    }
    CLC_VM_NEXT();
  }
  op_RetStruct: {
    // Verified: only struct-returning functions, whose frame slot 0 holds
    // the caller's result address.
    const std::uint64_t src = pop();
    const auto sret = readAs<std::uint64_t>(fp);
    const auto size = std::size_t(imm());
    const std::uint8_t* s = resolve(src, size, /*write=*/false);
    std::uint8_t* d = resolve(sret, size, /*write=*/true);
    std::memmove(d, s, size);
    if (ret()) {
      suspend();
      return;
    }
    CLC_VM_NEXT();
  }
  op_Trap:
    trap(imm() == 1 ? "control reached the end of a non-void function"
                      : "kernel trap");
  // Frame-addressed superinstructions: their offsets are verified against
  // the owning function's frame, so they access it directly.
  op_LoadFrame:
    push(loadSlot(fp + std::uint32_t(imm()), tag()));
    CLC_VM_NEXT();
  op_StoreFrame:
    storeSlot(fp + std::uint32_t(imm()), pop(), tag());
    CLC_VM_NEXT();
  op_BinConst:
    sp[-1] = binop(embeddedOp(imm()), tag(), sp[-1],
                   constants[std::size_t(embeddedOperand(imm()))]);
    CLC_VM_NEXT();
  op_FrameBin: {
    const std::uint64_t rhs =
        loadSlot(fp + std::uint32_t(embeddedOperand(imm())), tag());
    sp[-1] = binop(embeddedOp(imm()), tag(), sp[-1], rhs);
    CLC_VM_NEXT();
  }
  op_LoadBin: {
    const std::uint64_t ptr = pop();
    const std::uint64_t rhs = loadSlot(
        resolve(ptr, typeTagSize(tag()), /*write=*/false), tag());
    sp[-1] = binop(Op(imm()), tag(), sp[-1], rhs);
    CLC_VM_NEXT();
  }
  op_CmpJz: {
    const std::uint64_t rhs = pop();
    const std::uint64_t lhs = pop();
    if (!compare(cmpFromJump(imm()), tag(), lhs, rhs)) {
      pc = std::uint32_t(cmpJumpTarget(imm()));
    }
    CLC_VM_NEXT();
  }
  op_CmpJnz: {
    const std::uint64_t rhs = pop();
    const std::uint64_t lhs = pop();
    if (compare(cmpFromJump(imm()), tag(), lhs, rhs)) {
      pc = std::uint32_t(cmpJumpTarget(imm()));
    }
    CLC_VM_NEXT();
  }
  op_MulAdd: {
    // Two-step multiply-then-add: bit-identical to the Mul+Add pair it
    // replaces (deliberately *not* a fused fma).
    const std::uint64_t rhs = pop();
    const std::uint64_t lhs = pop();
    sp[-1] = arith(Op::Add, tag(), sp[-1],
                   arith(Op::Mul, tag(), lhs, rhs));
    CLC_VM_NEXT();
  }
  op_FrameBin2: {
    const std::uint64_t lhs =
        loadSlot(fp + std::uint32_t(frame2X(imm())), tag());
    const std::uint64_t rhs =
        loadSlot(fp + std::uint32_t(frame2Y(imm())), tag());
    push(binop(frame2Op(imm()), tag(), lhs, rhs));
    CLC_VM_NEXT();
  }
#undef CLC_VM_COMPARE
#undef CLC_VM_ARITH
#undef CLC_VM_NEXT
  }

private:
  [[noreturn, gnu::cold, gnu::noinline]] void trap(
      const std::string& message) const {
    throw TrapError("work-item (" + std::to_string(globalId_[0]) + "," +
                    std::to_string(globalId_[1]) + "," +
                    std::to_string(globalId_[2]) + ") in kernel '" +
                    ctx_->kernel->name + "': " + message);
  }

  /// `buffer` names the __global segment; it is empty for other spaces.
  [[noreturn, gnu::cold, gnu::noinline]] void trapOutOfBounds(
      const char* space, std::uint64_t offset, std::size_t size,
      std::uint64_t limit, const std::string& buffer = "") const {
    trap(std::string(space) + " memory access out of bounds (" +
         (buffer.empty() ? "" : "buffer " + buffer + ", ") + "offset " +
         std::to_string(offset) + ", size " + std::to_string(size) +
         ", limit " + std::to_string(limit) + ")");
  }

  // Operand stack for the out-of-line paths (calls, builtins), which run
  // on the published stack pointer.
  void push(std::uint64_t v) noexcept { *sp_++ = v; }
  std::uint64_t pop() noexcept { return *--sp_; }

  /// Resolves a packed pointer to raw host memory, bounds-checking the
  /// access. Also maintains the global traffic counters. The in-bounds
  /// private, __local and cached-segment __global cases are inline; a
  /// segment change and every trap take resolveSlow(). Kernels
  /// overwhelmingly stream through a single buffer, so one cached segment
  /// keeps the table lookup out of the common case.
  [[gnu::always_inline]] std::uint8_t* resolve(std::uint64_t ptr,
                                               std::size_t size, bool write) {
    const std::uint64_t offset = pointerOffset(ptr);
    switch (pointerSpace(ptr)) {
      case MemSpace::Global:
        if (std::uint32_t(pointerSegment(ptr)) == cachedSeg_ &&
            offset + size <= cachedSize_) {
          return chargeGlobal(cachedBase_ + offset, size, write);
        }
        break;
      case MemSpace::Private:
        if (offset + size <= arenaTop_) {
          return arena_ + offset;
        }
        break;
      case MemSpace::Local:
        if (offset + size <= localSize_) {
          return localBase_ + offset;
        }
        break;
      case MemSpace::Invalid:
        break;
    }
    return resolveSlow(ptr, size, write);
  }

  [[gnu::always_inline]] std::uint8_t* chargeGlobal(std::uint8_t* p,
                                                    std::size_t size,
                                                    bool write) noexcept {
    if (write) {
      bytesWritten_ += size;
    } else {
      bytesRead_ += size;
    }
    cycles_ += 8; // global memory latency beyond the base op cost
    return p;
  }

  /// resolve()'s out-of-line half: an out-of-bounds access traps, and a
  /// __global pointer into another segment refills the one-entry cache.
  [[gnu::noinline]] std::uint8_t* resolveSlow(std::uint64_t ptr,
                                              std::size_t size, bool write) {
    const std::uint64_t offset = pointerOffset(ptr);
    switch (pointerSpace(ptr)) {
      case MemSpace::Invalid:
        trap(ptr == 0 ? "null pointer dereference"
                      : "wild pointer dereference");
      case MemSpace::Private:
        // Only live frames are addressable, as if the arena ended at them.
        trapOutOfBounds("private", offset, size, arenaTop_);
      case MemSpace::Local:
        trapOutOfBounds("__local", offset, size, localSize_);
      case MemSpace::Global:
        break;
    }
    const std::uint64_t seg = pointerSegment(ptr);
    if (seg >= ctx_->segments->size()) {
      trap("invalid __global pointer (null or stale?)");
    }
    const Segment& segment = (*ctx_->segments)[seg];
    cachedSeg_ = std::uint32_t(seg);
    cachedBase_ = segment.base;
    cachedSize_ = segment.size;
    if (offset + size > cachedSize_) {
      trapOutOfBounds("__global", offset, size, cachedSize_,
                      std::to_string(seg));
    }
    return chargeGlobal(cachedBase_ + offset, size, write);
  }

  [[noreturn, gnu::cold, gnu::noinline]] void trapArith(
      Op op, TypeTag tag, EvalStatus status) const {
    if (status == EvalStatus::DivByZero) {
      trap(op == Op::Rem ? "integer remainder by zero"
                         : "integer division by zero");
    }
    trap(isFloatTag(tag) ? "float bitwise op" : "bad arithmetic op");
  }

  [[gnu::always_inline]] std::uint64_t arith(Op op, TypeTag tag,
                                             std::uint64_t lhs,
                                             std::uint64_t rhs) {
    std::uint64_t out = 0;
    const EvalStatus status = evalArith(op, tag, lhs, rhs, out);
    if (status != EvalStatus::Ok) [[unlikely]] {
      trapArith(op, tag, status);
    }
    return out;
  }

  [[gnu::always_inline]] bool compare(Op op, TypeTag tag, std::uint64_t lhs,
                                      std::uint64_t rhs) {
    bool out = false;
    if (evalCompare(op, tag, lhs, rhs, out) != EvalStatus::Ok) [[unlikely]] {
      trap("bad compare op");
    }
    return out;
  }

  /// An embedded binop of a superinstruction: arithmetic or a compare.
  [[gnu::always_inline]] std::uint64_t binop(Op op, TypeTag tag,
                                             std::uint64_t lhs,
                                             std::uint64_t rhs) {
    if (isCompareOp(op)) {
      return compare(op, tag, lhs, rhs) ? 1 : 0;
    }
    return arith(op, tag, lhs, rhs);
  }

  [[gnu::noinline]] void doCall(std::uint32_t funcIndex) {
    const FunctionInfo& f = ctx_->program->functions[funcIndex];
    // The callee frame starts zeroed at the next 8-byte boundary; the
    // verifier proved the arena holds every frame of the call graph.
    const std::uint32_t newBase = (arenaTop_ + 7) / 8 * 8;
    const std::uint32_t newTop = newBase + f.frameSize;
    std::memset(arena_ + arenaTop_, 0, newTop - arenaTop_);
    arenaTop_ = newTop;
    std::uint8_t* frame = arena_ + newBase;

    // Pop arguments in reverse into the callee frame.
    for (std::size_t i = f.params.size(); i-- > 0;) {
      const ParamInfo& p = f.params[i];
      const std::uint64_t v = pop();
      if (p.kind == ParamKind::Struct) {
        const std::uint8_t* src = resolve(v, p.size, /*write=*/false);
        std::memmove(frame + p.frameOffset, src, p.size);
      } else {
        std::memcpy(frame + p.frameOffset, &v,
                    std::min<std::size_t>(p.size, 8));
      }
    }
    if (f.returnsStruct) {
      writeAs(frame, pop()); // slot 0 = sret
    }

    frames_[frameCount_++] = Frame{pc_, newBase};
    pc_ = f.codeStart;
  }

  [[gnu::noinline]] void doBuiltin(Builtin id, TypeTag tag) {
    cycles_ += builtinCycleCost(id);
    switch (id) {
      case Builtin::GetGlobalId: push(idQuery(globalId_)); return;
      case Builtin::GetLocalId: push(idQuery(localId_)); return;
      case Builtin::GetGroupId: push(idQuery(groupId_)); return;
      case Builtin::GetGlobalSize: {
        const std::uint64_t d = pop();
        push(d < 3 ? ctx_->range.globalSize[d] : 1);
        return;
      }
      case Builtin::GetLocalSize: {
        const std::uint64_t d = pop();
        push(d < 3 ? ctx_->range.localSize[d] : 1);
        return;
      }
      case Builtin::GetNumGroups: {
        const std::uint64_t d = pop();
        push(d < 3 ? ctx_->groupCount[d] : 1);
        return;
      }
      case Builtin::GetWorkDim:
        push(ctx_->range.dims);
        return;
      case Builtin::Barrier:
        COMMON_CHECK_MSG(false, "barrier must compile to Op::Barrier");
        return;
      default:
        break;
    }

    if (isAtomic(id)) {
      doAtomic(id, tag);
      return;
    }

    const std::uint8_t arity = builtinArity(id);
    std::uint64_t a[3] = {0, 0, 0};
    for (std::size_t i = arity; i-- > 0;) {
      a[i] = pop();
    }
    const bool f64 = tag == TypeTag::F64;
    const auto x = [&](int i) {
      return f64 ? slotF64(a[i]) : double(slotF32(a[i]));
    };
    const auto ret = [&](double d) {
      push(f64 ? f64Slot(d) : f32Slot(float(d)));
    };
    // For f32 operands compute in float precision where it matters
    // (matches what a GPU would produce more closely).
    const auto retf = [&](auto fn) {
      if (f64) {
        push(f64Slot(fn(slotF64(a[0]))));
      } else {
        push(f32Slot(fn(slotF32(a[0]))));
      }
    };
    const auto retf2 = [&](auto fn) {
      if (f64) {
        push(f64Slot(fn(slotF64(a[0]), slotF64(a[1]))));
      } else {
        push(f32Slot(fn(slotF32(a[0]), slotF32(a[1]))));
      }
    };

    switch (id) {
      case Builtin::Sqrt: retf([](auto v) { return std::sqrt(v); }); return;
      case Builtin::Rsqrt:
        retf([](auto v) { return decltype(v)(1) / std::sqrt(v); });
        return;
      case Builtin::Sin: retf([](auto v) { return std::sin(v); }); return;
      case Builtin::Cos: retf([](auto v) { return std::cos(v); }); return;
      case Builtin::Tan: retf([](auto v) { return std::tan(v); }); return;
      case Builtin::Asin: retf([](auto v) { return std::asin(v); }); return;
      case Builtin::Acos: retf([](auto v) { return std::acos(v); }); return;
      case Builtin::Atan: retf([](auto v) { return std::atan(v); }); return;
      case Builtin::Exp: retf([](auto v) { return std::exp(v); }); return;
      case Builtin::Exp2: retf([](auto v) { return std::exp2(v); }); return;
      case Builtin::Log: retf([](auto v) { return std::log(v); }); return;
      case Builtin::Log2: retf([](auto v) { return std::log2(v); }); return;
      case Builtin::Log10: retf([](auto v) { return std::log10(v); }); return;
      case Builtin::Fabs: retf([](auto v) { return std::fabs(v); }); return;
      case Builtin::Floor: retf([](auto v) { return std::floor(v); }); return;
      case Builtin::Ceil: retf([](auto v) { return std::ceil(v); }); return;
      case Builtin::Round: retf([](auto v) { return std::round(v); }); return;
      case Builtin::Trunc: retf([](auto v) { return std::trunc(v); }); return;
      case Builtin::Pow:
        retf2([](auto x_, auto y_) { return std::pow(x_, y_); });
        return;
      case Builtin::Atan2:
        retf2([](auto x_, auto y_) { return std::atan2(x_, y_); });
        return;
      case Builtin::Fmod:
        retf2([](auto x_, auto y_) { return std::fmod(x_, y_); });
        return;
      case Builtin::Fmin:
        retf2([](auto x_, auto y_) { return std::fmin(x_, y_); });
        return;
      case Builtin::Fmax:
        retf2([](auto x_, auto y_) { return std::fmax(x_, y_); });
        return;
      case Builtin::Hypot:
        retf2([](auto x_, auto y_) { return std::hypot(x_, y_); });
        return;
      case Builtin::Copysign:
        retf2([](auto x_, auto y_) { return std::copysign(x_, y_); });
        return;
      case Builtin::Mad:
      case Builtin::Fma:
        if (f64) {
          push(f64Slot(std::fma(slotF64(a[0]), slotF64(a[1]), slotF64(a[2]))));
        } else {
          push(f32Slot(std::fma(slotF32(a[0]), slotF32(a[1]), slotF32(a[2]))));
        }
        return;
      case Builtin::Mix:
        ret(x(0) + (x(1) - x(0)) * x(2));
        return;
      case Builtin::Clamp:
        ret(std::fmin(std::fmax(x(0), x(1)), x(2)));
        return;
      case Builtin::IClamp: {
        const auto v = std::int64_t(a[0]);
        const auto lo = std::int64_t(a[1]);
        const auto hi = std::int64_t(a[2]);
        push(std::uint64_t(std::min(std::max(v, lo), hi)));
        return;
      }
      case Builtin::IMin:
      case Builtin::IMax: {
        const bool wantMin = id == Builtin::IMin;
        if (isSignedTag(tag)) {
          const auto l = std::int64_t(a[0]);
          const auto r = std::int64_t(a[1]);
          push(std::uint64_t(wantMin ? std::min(l, r) : std::max(l, r)));
        } else {
          push(wantMin ? std::min(a[0], a[1]) : std::max(a[0], a[1]));
        }
        return;
      }
      case Builtin::IAbs: {
        // The magnitude in unsigned arithmetic: abs(LONG_MIN) keeps its
        // bits instead of overflowing a signed negation.
        const std::uint64_t v = a[0];
        push(canon(std::int64_t(v) < 0 ? 0 - v : v, tag));
        return;
      }
      case Builtin::AsInt:
      case Builtin::AsUInt:
      case Builtin::AsFloat:
        // 32-bit reinterpretation: the slot already holds the bits.
        push(id == Builtin::AsInt ? canon(a[0], TypeTag::I32)
                                  : (a[0] & 0xffffffffULL));
        return;
      case Builtin::ConvertInt:
        push(convert(a[0], tag, TypeTag::I32));
        return;
      case Builtin::ConvertUInt:
        push(convert(a[0], tag, TypeTag::U32));
        return;
      case Builtin::ConvertFloat:
        push(convert(a[0], tag, TypeTag::F32));
        return;
      default:
        trap(std::string("builtin not implemented: ") + builtinName(id));
    }
  }

  void doAtomic(Builtin id, TypeTag tag) {
    ++atomics_;
    const std::uint8_t arity = builtinArity(id);
    std::uint64_t a[3] = {0, 0, 0};
    for (std::size_t i = arity; i-- > 0;) {
      a[i] = pop();
    }
    const std::uint64_t ptr = a[0];
    const MemSpace space = pointerSpace(ptr);
    std::uint8_t* p = resolve(ptr, 4, /*write=*/true);
    if ((reinterpret_cast<std::uintptr_t>(p) & 3) != 0) {
      trap("misaligned atomic access");
    }
    auto* word = reinterpret_cast<std::uint32_t*>(p);

    // Global memory may be touched by several host threads (one per
    // work-group); __local memory is single-threaded within the group.
    const bool needAtomic = space == MemSpace::Global;

    const auto rmw = [&](auto fn) -> std::uint32_t {
      if (needAtomic) {
        std::atomic_ref<std::uint32_t> ref(*word);
        std::uint32_t expected = ref.load(std::memory_order_relaxed);
        for (;;) {
          const std::uint32_t desired = fn(expected);
          if (ref.compare_exchange_weak(expected, desired,
                                        std::memory_order_acq_rel)) {
            return expected;
          }
        }
      }
      const std::uint32_t old = *word;
      *word = fn(old);
      return old;
    };

    const auto operand = std::uint32_t(a[1]);
    std::uint32_t old = 0;
    switch (id) {
      case Builtin::AtomicAdd:
        old = rmw([&](std::uint32_t v) { return v + operand; });
        break;
      case Builtin::AtomicSub:
        old = rmw([&](std::uint32_t v) { return v - operand; });
        break;
      case Builtin::AtomicXchg:
        old = rmw([&](std::uint32_t) { return operand; });
        break;
      case Builtin::AtomicMin:
        if (isSignedTag(tag)) {
          old = rmw([&](std::uint32_t v) {
            return std::uint32_t(
                std::min(std::int32_t(v), std::int32_t(operand)));
          });
        } else {
          old = rmw([&](std::uint32_t v) { return std::min(v, operand); });
        }
        break;
      case Builtin::AtomicMax:
        if (isSignedTag(tag)) {
          old = rmw([&](std::uint32_t v) {
            return std::uint32_t(
                std::max(std::int32_t(v), std::int32_t(operand)));
          });
        } else {
          old = rmw([&](std::uint32_t v) { return std::max(v, operand); });
        }
        break;
      case Builtin::AtomicAnd:
        old = rmw([&](std::uint32_t v) { return v & operand; });
        break;
      case Builtin::AtomicOr:
        old = rmw([&](std::uint32_t v) { return v | operand; });
        break;
      case Builtin::AtomicXor:
        old = rmw([&](std::uint32_t v) { return v ^ operand; });
        break;
      case Builtin::AtomicInc:
        old = rmw([&](std::uint32_t v) { return v + 1; });
        break;
      case Builtin::AtomicDec:
        old = rmw([&](std::uint32_t v) { return v - 1; });
        break;
      case Builtin::AtomicCmpXchg: {
        const auto cmp = std::uint32_t(a[1]);
        const auto val = std::uint32_t(a[2]);
        old = rmw([&](std::uint32_t v) { return v == cmp ? val : v; });
        break;
      }
      case Builtin::AtomicAddFloat: {
        const float add = slotF32(a[1]);
        old = rmw([&](std::uint32_t v) {
          float f;
          std::memcpy(&f, &v, 4);
          f += add;
          std::uint32_t out;
          std::memcpy(&out, &f, 4);
          return out;
        });
        push(old & 0xffffffffULL);
        return;
      }
      default:
        trap("bad atomic builtin");
    }
    push(canon(old, tag == TypeTag::F32 ? TypeTag::U32 : tag));
  }

  std::uint64_t idQuery(const std::size_t ids[3]) {
    const std::uint64_t d = pop();
    return d < 3 ? ids[d] : 0;
  }

  const LaunchContext* ctx_ = nullptr;
  std::uint8_t* localBase_ = nullptr;
  std::size_t localSize_ = 0;
  std::size_t globalId_[3] = {0, 0, 0};
  std::size_t localId_[3] = {0, 0, 0};
  std::size_t groupId_[3] = {0, 0, 0};

  std::uint64_t* operands_ = nullptr; // bottom of the operand stack
  std::uint64_t* sp_ = nullptr;       // one past its top
  std::uint8_t* arena_ = nullptr;     // private memory of all frames
  std::uint32_t arenaTop_ = 0;        // end of the innermost live frame
  Frame* frames_ = nullptr;
  std::uint32_t frameCount_ = 0;
  std::uint32_t pc_ = 0;
  ItemStatus status_ = ItemStatus::Running;

  // One-entry __global segment cache (see resolve()).
  std::uint32_t cachedSeg_ = ~0u;
  std::uint8_t* cachedBase_ = nullptr;
  std::size_t cachedSize_ = 0;

  std::uint64_t cycles_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t bytesRead_ = 0;
  std::uint64_t bytesWritten_ = 0;
  std::uint64_t atomics_ = 0;
};

/// Per-group counters filled by the group runner.
struct GroupResult {
  GroupCost cost;
  std::uint64_t instructions = 0;
  std::uint64_t bytesRead = 0;
  std::uint64_t bytesWritten = 0;
  std::uint64_t atomics = 0;
  std::uint64_t barrierWaits = 0;
};

/// A pool thread's work-item state, reused across groups and launches. It
/// only grows, to the largest group this thread has run; each group then
/// resets just the kernel frames and its __local memory.
struct ItemSlab {
  std::vector<ItemVM> items;
  std::vector<std::uint64_t> operands;
  std::vector<std::uint8_t> arenas;
  std::vector<Frame> frames;
  std::vector<std::uint8_t> localMem;

  /// Never null, so zero-length memsets on it stay well-defined.
  template <typename T>
  static T* atLeast(std::vector<T>& v, std::size_t n) {
    if (v.size() < std::max<std::size_t>(n, 1)) {
      v.resize(std::max<std::size_t>(n, 1));
    }
    return v.data();
  }
};

void runGroup(const LaunchContext& ctx, std::size_t groupLinear,
              GroupResult& result) {
  thread_local ItemSlab slab;

  const std::size_t gx = groupLinear % ctx.groupCount[0];
  const std::size_t gy = (groupLinear / ctx.groupCount[0]) % ctx.groupCount[1];
  const std::size_t gz = groupLinear / (ctx.groupCount[0] * ctx.groupCount[1]);
  const std::size_t groupId[3] = {gx, gy, gz};

  std::uint8_t* localMem =
      ItemSlab::atLeast(slab.localMem, std::size_t(ctx.totalLocalSize));
  std::memset(localMem, 0, std::size_t(ctx.totalLocalSize));

  // Barrier-free kernels never yield, so each work-item runs straight
  // through on one interpreter and one storage slice; with barriers every
  // item of the group keeps its own slice between resumptions.
  const KernelBounds& bounds = ctx.kernel->bounds;
  const std::size_t itemCount =
      bounds.hasBarrier ? ctx.range.totalLocal() : 1;
  const std::size_t arenaStride = (std::size_t(bounds.arenaBytes) + 15) / 16 * 16;
  ItemVM* items = ItemSlab::atLeast(slab.items, itemCount);
  std::uint64_t* operands =
      ItemSlab::atLeast(slab.operands, itemCount * bounds.operands);
  std::uint8_t* arenas = ItemSlab::atLeast(slab.arenas, itemCount * arenaStride);
  Frame* frames = ItemSlab::atLeast(slab.frames, itemCount * bounds.callDepth);

  const auto accumulate = [&](const ItemVM& item) {
    result.cost.sumCycles += item.cycles();
    result.cost.maxCycles = std::max(result.cost.maxCycles, item.cycles());
    result.instructions += item.instructions();
    result.bytesRead += item.bytesRead();
    result.bytesWritten += item.bytesWritten();
    result.atomics += item.atomics();
  };

  std::size_t idx = 0;
  for (std::size_t lz = 0; lz < ctx.range.localSize[2]; ++lz) {
    for (std::size_t ly = 0; ly < ctx.range.localSize[1]; ++ly) {
      for (std::size_t lx = 0; lx < ctx.range.localSize[0]; ++lx) {
        const std::size_t localId[3] = {lx, ly, lz};
        const std::size_t globalId[3] = {
            ctx.range.globalOffset[0] + gx * ctx.range.localSize[0] + lx,
            ctx.range.globalOffset[1] + gy * ctx.range.localSize[1] + ly,
            ctx.range.globalOffset[2] + gz * ctx.range.localSize[2] + lz,
        };
        const std::size_t slot = bounds.hasBarrier ? idx++ : 0;
        const ItemStorage storage{operands + slot * bounds.operands,
                                  arenas + slot * arenaStride,
                                  frames + slot * bounds.callDepth};
        ItemVM& item = items[slot];
        item.init(ctx, storage, localMem, std::size_t(ctx.totalLocalSize),
                  globalId, localId, groupId);
        if (!bounds.hasBarrier) {
          item.resume();
          accumulate(item);
        }
      }
    }
  }
  if (!bounds.hasBarrier) {
    return;
  }

  // Round-robin between barriers.
  for (;;) {
    std::size_t done = 0;
    std::size_t atBarrier = 0;
    for (std::size_t i = 0; i < itemCount; ++i) {
      ItemVM& item = items[i];
      if (item.status() == ItemStatus::Done) {
        ++done;
        continue;
      }
      item.resume();
      if (item.status() == ItemStatus::Done) {
        ++done;
      } else {
        ++atBarrier;
      }
    }
    if (atBarrier == 0) {
      break;
    }
    if (done != 0) {
      throw TrapError(
          "barrier divergence in kernel '" + ctx.kernel->name +
          "': some work-items of a group finished while others wait at a "
          "barrier");
    }
    ++result.barrierWaits;
  }

  for (std::size_t i = 0; i < itemCount; ++i) {
    accumulate(items[i]);
  }
}

/// Launches of at most this many work items run on the calling thread
/// (one default-sized SkelCL work-group).
constexpr std::size_t kInlineItems = 256;

} // namespace

LaunchStats executeKernel(const Program& program,
                          const std::string& kernelName, const NDRange& range,
                          const std::vector<KernelArgValue>& args,
                          const std::vector<Segment>& segments,
                          common::ThreadPool* pool) {
  const KernelInfo* kernel = program.findKernel(kernelName);
  if (kernel == nullptr) {
    throw common::InvalidArgument("no kernel named '" + kernelName + "'");
  }
  if (kernel->bounds.callDepth == 0) {
    throw common::InvalidArgument("kernel '" + kernelName +
                                  "' has not been verified (clc::verify)");
  }

  LaunchContext ctx;
  ctx.program = &program;
  ctx.segments = &segments;
  ctx.kernel = kernel;
  ctx.kernelFunc = &program.functions[kernel->functionIndex];
  ctx.range = range;

  ctx.costs = program.cycleCosts.data();

  if (args.size() != ctx.kernelFunc->params.size()) {
    throw common::InvalidArgument(
        "kernel '" + kernelName + "' expects " +
        std::to_string(ctx.kernelFunc->params.size()) + " arguments, got " +
        std::to_string(args.size()));
  }

  for (std::uint32_t d = 0; d < 3; ++d) {
    if (range.localSize[d] == 0 || range.globalSize[d] == 0) {
      throw common::InvalidArgument("ND-range sizes must be non-zero");
    }
    if (range.globalSize[d] % range.localSize[d] != 0) {
      throw common::InvalidArgument(
          "global size must be divisible by the work-group size "
          "(OpenCL 1.1 rule); dimension " +
          std::to_string(d) + ": " + std::to_string(range.globalSize[d]) +
          " % " + std::to_string(range.localSize[d]) + " != 0");
    }
    ctx.groupCount[d] = range.globalSize[d] / range.localSize[d];
  }

  // One work-group's local memory holds the static __local declarations
  // first, then each __local pointer argument's region. The argument frame
  // image gets every argument's slot (or struct bytes) at its offset.
  const FunctionInfo& f = *ctx.kernelFunc;
  // Never empty, so the per-item copy never reads through a null pointer.
  ctx.argFrame.assign(std::max<std::uint32_t>(f.frameSize, 1), 0);
  std::uint64_t localTop = kernel->staticLocalSize;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const ParamInfo& p = f.params[i];
    const KernelArgValue& arg = args[i];
    if (p.kind == ParamKind::LocalPtr) {
      if (arg.kind != KernelArgValue::Kind::Local) {
        throw common::InvalidArgument(
            "kernel argument " + std::to_string(i) +
            " is a __local pointer; the host must supply a size");
      }
      localTop = (localTop + 7) / 8 * 8;
    }
    std::uint64_t slot = 0;
    switch (arg.kind) {
      case KernelArgValue::Kind::Buffer:
        slot = packPointer(MemSpace::Global, arg.segmentIndex, 0);
        break;
      case KernelArgValue::Kind::Local:
        // ocl::Kernel::setArgLocal only accepts __local pointer params.
        COMMON_CHECK_MSG(p.kind == ParamKind::LocalPtr,
                         "non-local param given a local arg");
        slot = packPointer(MemSpace::Local, 0, localTop);
        localTop += arg.localSize;
        break;
      case KernelArgValue::Kind::Scalar:
        slot = arg.scalar;
        break;
      case KernelArgValue::Kind::Struct:
        COMMON_CHECK(arg.bytes.size() == p.size);
        std::memcpy(ctx.argFrame.data() + p.frameOffset, arg.bytes.data(),
                    p.size);
        continue;
    }
    std::memcpy(ctx.argFrame.data() + p.frameOffset, &slot,
                std::min<std::size_t>(p.size == 0 ? 8 : p.size, 8));
  }
  ctx.totalLocalSize = localTop;

  const std::size_t numGroups =
      ctx.groupCount[0] * ctx.groupCount[1] * ctx.groupCount[2];
  std::vector<GroupResult> results(numGroups);

  const auto runOne = [&](std::size_t g) { runGroup(ctx, g, results[g]); };
  const std::size_t items =
      range.globalSize[0] * range.globalSize[1] * range.globalSize[2];
  if (pool != nullptr && numGroups > 1 && items > kInlineItems) {
    pool->parallelFor(numGroups, runOne);
  } else {
    for (std::size_t g = 0; g < numGroups; ++g) {
      runOne(g);
    }
  }

  LaunchStats stats;
  stats.groups.reserve(numGroups);
  for (const GroupResult& r : results) {
    stats.groups.push_back(r.cost);
    stats.instructions += r.instructions;
    stats.totalCycles += r.cost.sumCycles;
    stats.globalBytesRead += r.bytesRead;
    stats.globalBytesWritten += r.bytesWritten;
    stats.atomicOps += r.atomics;
    stats.barrierWaits += r.barrierWaits;
  }
  return stats;
}

} // namespace clc
