#include "clc/dispatch.h"

#include <array>
#include <cstddef>
#include <iterator>

namespace clc {

namespace {

#define CLC_GENERIC_OP(name) Op::name,
constexpr Op kGenericOps[] = {CLC_GENERIC_HANDLERS(CLC_GENERIC_OP)};
#undef CLC_GENERIC_OP

constexpr bool genericHandlersInOpOrder() {
  for (std::size_t i = 0; i < std::size(kGenericOps); ++i) {
    if (kGenericOps[i] != Op(i)) {
      return false;
    }
  }
  return std::size(kGenericOps) == kGenericHandlers;
}
static_assert(genericHandlersInOpOrder(),
              "CLC_GENERIC_HANDLERS must list every Op once, in enum order");

/// The families of CLC_QUICK_HANDLERS.
enum class QuickFamily : std::uint8_t {
  Plain, BinConst, FrameBin, FrameBin2, CmpJz, CmpJnz,
  Load, Store, LoadFrame, StoreFrame, MulAdd,
};

struct QuickKey {
  QuickFamily family;
  Op op;
  TypeTag tag;
};

#define CLC_QUICK_KEY(family, op, tag) \
  QuickKey{QuickFamily::family, Op::op, TypeTag::tag},
constexpr QuickKey kQuickKeys[] = {CLC_QUICK_HANDLERS(CLC_QUICK_KEY)};
#undef CLC_QUICK_KEY

static_assert(kGenericHandlers + std::size(kQuickKeys) == kHandlerCount);

constexpr std::size_t kFamilies = std::size_t(QuickFamily::MulAdd) + 1;
constexpr std::size_t kOps = std::size_t(kMaxOp) + 1;
constexpr std::size_t kTags = std::size_t(kMaxTypeTag) + 1;

constexpr std::size_t keySlot(QuickFamily family, Op op, TypeTag tag) {
  return (std::size_t(family) * kOps + std::size_t(op)) * kTags +
         std::size_t(tag);
}

/// Quickened handler by key slot; 0 (Nop's generic handler, never a
/// quickened one) where the key has none.
constexpr auto kQuickIndex = [] {
  std::array<HandlerIndex, kFamilies * kOps * kTags> table{};
  for (std::size_t i = 0; i < std::size(kQuickKeys); ++i) {
    const QuickKey& k = kQuickKeys[i];
    table[keySlot(k.family, k.op, k.tag)] = HandlerIndex(kGenericHandlers + i);
  }
  return table;
}();

/// True for the opcodes whose generic handler decodes the tag or an
/// embedded op (or conversion tags, or a builtin) on every execution.
constexpr bool decodesType(Op op) {
  switch (op) {
    case Op::Nop:
    case Op::PushConst:
    case Op::PushFrameAddr:
    case Op::PushLocalAddr:
    case Op::Dup:
    case Op::Pop:
    case Op::Swap:
    case Op::Rot3:
    case Op::MemCopy:
    case Op::LogNot:
    case Op::Jmp:
    case Op::Jz:
    case Op::Jnz:
    case Op::Call:
    case Op::Barrier:
    case Op::Ret:
    case Op::RetVal:
    case Op::RetStruct:
    case Op::Trap:
      return false;
    default:
      return true;
  }
}

} // namespace

HandlerIndex resolveHandler(const Instr& in) noexcept {
  if (in.op > kMaxOp) {
    return HandlerIndex(Op::Trap);
  }
  const auto generic = HandlerIndex(in.op);
  QuickFamily family = QuickFamily::Plain;
  Op op = Op::Nop;
  switch (in.op) {
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::CmpEq:
    case Op::CmpNe:
    case Op::CmpLt:
    case Op::CmpLe:
    case Op::CmpGt:
    case Op::CmpGe:
      op = in.op;
      break;
    case Op::BinConst:
      family = QuickFamily::BinConst;
      op = embeddedOp(in.a);
      break;
    case Op::FrameBin:
      family = QuickFamily::FrameBin;
      op = embeddedOp(in.a);
      break;
    case Op::FrameBin2:
      family = QuickFamily::FrameBin2;
      op = frame2Op(in.a);
      break;
    case Op::CmpJz:
      family = QuickFamily::CmpJz;
      op = cmpFromJump(in.a);
      break;
    case Op::CmpJnz:
      family = QuickFamily::CmpJnz;
      op = cmpFromJump(in.a);
      break;
    case Op::Load: family = QuickFamily::Load; break;
    case Op::Store: family = QuickFamily::Store; break;
    case Op::LoadFrame: family = QuickFamily::LoadFrame; break;
    case Op::StoreFrame: family = QuickFamily::StoreFrame; break;
    case Op::MulAdd: family = QuickFamily::MulAdd; break;
    default:
      return generic;
  }
  if (op > kMaxOp || in.tag > kMaxTypeTag) {
    return generic;
  }
  const TypeTag tag = in.tag == TypeTag::Ptr ? TypeTag::U64 : in.tag;
  const HandlerIndex quick = kQuickIndex[keySlot(family, op, tag)];
  return quick != 0 ? quick : generic;
}

HandlerKind handlerKind(HandlerIndex handler) noexcept {
  if (handler >= kGenericHandlers) {
    return HandlerKind::Quickened;
  }
  return decodesType(Op(handler)) ? HandlerKind::Generic
                                  : HandlerKind::Untyped;
}

const char* handlerKindName(HandlerKind kind) noexcept {
  switch (kind) {
    case HandlerKind::Quickened: return "quick";
    case HandlerKind::Untyped: return "untyped";
    case HandlerKind::Generic: return "generic";
  }
  return "?";
}

} // namespace clc
