// The VM's handler catalog: which handler of ItemVM::resume (vm.cpp)
// runs each instruction.
//
// Every opcode has a generic handler, which decodes the instruction's
// type tag (and embedded op) each time it runs. The hot families also
// have quickened handlers: one per (family, embedded op, tag), with the
// op and the tag fixed when the simulator is compiled, so eval.h's bodies
// inline to the one path they take. Both lists below are X-macros; vm.cpp
// expands them into its handler labels and dispatch table, dispatch.cpp
// into the resolver's key table, in the same order.
//
// clc::verify resolves each instruction's handler once per program and
// stores the indices in Program::handlers, which the VM jumps through.
// An instruction without a quickened handler (another op, an embedded op
// outside the list, F64 or an 8/16-bit tag) keeps its generic handler.
// Both kinds charge Program::cycleCosts and evaluate through the same
// eval.h bodies, so which one runs changes host time only.
#pragma once

#include <cstdint>

#include "clc/bytecode.h"

namespace clc {

/// The generic handlers, in Op order: opcode `op`'s is handler `op`.
#define CLC_GENERIC_HANDLERS(X)                                           \
  X(Nop) X(PushConst) X(PushFrameAddr) X(PushLocalAddr) X(Dup) X(Pop)     \
  X(Swap) X(Rot3) X(Load) X(Store) X(StoreKeep) X(MemCopy) X(Add) X(Sub)  \
  X(Mul) X(Div) X(Rem) X(Neg) X(Shl) X(Shr) X(BitAnd) X(BitOr) X(BitXor)  \
  X(BitNot) X(CmpEq) X(CmpNe) X(CmpLt) X(CmpLe) X(CmpGt) X(CmpGe)         \
  X(LogNot) X(Conv) X(Jmp) X(Jz) X(Jnz) X(Call) X(CallBuiltin) X(Barrier) \
  X(Ret) X(RetVal) X(RetStruct) X(Trap) X(LoadFrame) X(StoreFrame)       \
  X(BinConst) X(FrameBin) X(LoadBin) X(CmpJz) X(CmpJnz) X(MulAdd)        \
  X(FrameBin2)

// The quickened handlers, X(family, op, tag). `family` is the opcode of
// that name, or Plain for a binop instruction itself (Add, Sub, Mul or a
// compare); `op` is the binop the handler evaluates (Nop for the families
// without one) and `tag` one of the five hot tags. Ptr resolves to U64,
// whose semantics it shares.
#define CLC_QUICK_TAGS(X, family, op)                                     \
  X(family, op, F32) X(family, op, I32) X(family, op, U32)                \
  X(family, op, I64) X(family, op, U64)
#define CLC_QUICK_COMPARES(X, family)                                     \
  CLC_QUICK_TAGS(X, family, CmpEq) CLC_QUICK_TAGS(X, family, CmpNe)       \
  CLC_QUICK_TAGS(X, family, CmpLt) CLC_QUICK_TAGS(X, family, CmpLe)       \
  CLC_QUICK_TAGS(X, family, CmpGt) CLC_QUICK_TAGS(X, family, CmpGe)
#define CLC_QUICK_BINOPS(X, family)                                       \
  CLC_QUICK_TAGS(X, family, Add) CLC_QUICK_TAGS(X, family, Sub)           \
  CLC_QUICK_TAGS(X, family, Mul) CLC_QUICK_COMPARES(X, family)
#define CLC_QUICK_HANDLERS(X)                                             \
  CLC_QUICK_BINOPS(X, Plain) CLC_QUICK_BINOPS(X, BinConst)                \
  CLC_QUICK_BINOPS(X, FrameBin) CLC_QUICK_BINOPS(X, FrameBin2)            \
  CLC_QUICK_COMPARES(X, CmpJz) CLC_QUICK_COMPARES(X, CmpJnz)              \
  CLC_QUICK_TAGS(X, Load, Nop) CLC_QUICK_TAGS(X, Store, Nop)              \
  CLC_QUICK_TAGS(X, LoadFrame, Nop) CLC_QUICK_TAGS(X, StoreFrame, Nop)    \
  CLC_QUICK_TAGS(X, MulAdd, Nop)

/// An index into the VM's dispatch table: the generic handlers first, in
/// Op order, then the quickened ones in CLC_QUICK_HANDLERS order.
using HandlerIndex = std::uint16_t;

inline constexpr HandlerIndex kGenericHandlers = HandlerIndex(kMaxOp) + 1;

#define CLC_QUICK_COUNT(family, op, tag) +1
inline constexpr HandlerIndex kHandlerCount =
    kGenericHandlers + (0 CLC_QUICK_HANDLERS(CLC_QUICK_COUNT));
#undef CLC_QUICK_COUNT

enum class HandlerKind : std::uint8_t {
  Quickened, // op and tag fixed when the simulator was compiled
  Untyped,   // generic, for an opcode that reads no tag and no embedded op
  Generic,   // decodes the tag (and embedded op) on every execution
};

/// The handler that runs `in`: the quickened handler of its family,
/// embedded op and tag if there is one, else its opcode's generic
/// handler. Defined for any bits: an opcode past kMaxOp, which the
/// verifier rejects wherever it is reachable, resolves to Trap's.
HandlerIndex resolveHandler(const Instr& in) noexcept;

HandlerKind handlerKind(HandlerIndex handler) noexcept;

/// "quick", "untyped" or "generic".
const char* handlerKindName(HandlerKind kind) noexcept;

} // namespace clc
