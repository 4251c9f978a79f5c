#include "clc/bytecode.h"

#include <sstream>

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

const char* opName(Op op) noexcept {
  switch (op) {
    case Op::Nop: return "nop";
    case Op::PushConst: return "push_const";
    case Op::PushFrameAddr: return "push_frame_addr";
    case Op::PushLocalAddr: return "push_local_addr";
    case Op::Dup: return "dup";
    case Op::Pop: return "pop";
    case Op::Swap: return "swap";
    case Op::Rot3: return "rot3";
    case Op::Load: return "load";
    case Op::Store: return "store";
    case Op::StoreKeep: return "store_keep";
    case Op::MemCopy: return "memcopy";
    case Op::Add: return "add";
    case Op::Sub: return "sub";
    case Op::Mul: return "mul";
    case Op::Div: return "div";
    case Op::Rem: return "rem";
    case Op::Neg: return "neg";
    case Op::Shl: return "shl";
    case Op::Shr: return "shr";
    case Op::BitAnd: return "and";
    case Op::BitOr: return "or";
    case Op::BitXor: return "xor";
    case Op::BitNot: return "not";
    case Op::CmpEq: return "cmp_eq";
    case Op::CmpNe: return "cmp_ne";
    case Op::CmpLt: return "cmp_lt";
    case Op::CmpLe: return "cmp_le";
    case Op::CmpGt: return "cmp_gt";
    case Op::CmpGe: return "cmp_ge";
    case Op::LogNot: return "log_not";
    case Op::Conv: return "conv";
    case Op::Jmp: return "jmp";
    case Op::Jz: return "jz";
    case Op::Jnz: return "jnz";
    case Op::Call: return "call";
    case Op::CallBuiltin: return "call_builtin";
    case Op::Barrier: return "barrier";
    case Op::Ret: return "ret";
    case Op::RetVal: return "ret_val";
    case Op::RetStruct: return "ret_struct";
    case Op::Trap: return "trap";
    case Op::LoadFrame: return "load_frame";
    case Op::StoreFrame: return "store_frame";
    case Op::BinConst: return "bin_const";
    case Op::FrameBin: return "frame_bin";
    case Op::LoadBin: return "load_bin";
    case Op::CmpJz: return "cmp_jz";
    case Op::CmpJnz: return "cmp_jnz";
    case Op::MulAdd: return "mul_add";
    case Op::FrameBin2: return "frame_bin2";
  }
  return "?";
}

std::string disassemble(const Program& program) {
  std::ostringstream out;
  for (const FunctionInfo& f : program.functions) {
    out << (f.isKernel ? "kernel " : "func ") << f.name << " frame="
        << f.frameSize << ":\n";
    for (std::uint32_t pc = f.codeStart; pc < f.codeEnd; ++pc) {
      const Instr& instr = program.code[pc];
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
      out << "\n";
    }
  }
  return out.str();
}

} // namespace clc
