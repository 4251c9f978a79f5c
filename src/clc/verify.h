// Bytecode verifier: proves that a Program can run on the VM's unchecked
// fast path.
//
// It runs on every program before execution: at the end of compile() and
// optimize(), and inside deserializeProgram(), so a cache entry whose
// digest is valid but whose bytecode is not can never reach the VM. For
// every function it walks the reachable code with an abstract operand-stack
// depth and proves that
//
//   * every operand (constant index, frame offset, call target, builtin id,
//     conversion tags, embedded ops) is in range;
//   * the operand stack never underflows, and every join point is reached
//     with one depth;
//   * every branch target lies inside the owning function and control never
//     falls off its end;
//   * returns match the function's signature and leave exactly their value
//     on the stack, so a call's stack effect is known to the caller;
//   * the call graph is acyclic and at most kMaxCallDepth frames deep, and
//     no kernel's live frames exceed kMaxPrivateArena bytes.
//
// From this it records each kernel's KernelBounds (bytecode.h), fills an
// empty Program::cycleCosts from the opcode table and resolves every
// instruction's Program::handlers entry (dispatch.h), so every runnable
// program carries the cycle table the VM charges from and the handler
// table it dispatches through.
#pragma once

#include <cstdint>
#include <string>

#include "clc/bytecode.h"
#include "common/error.h"

namespace clc {

/// Raised when a program fails verification. compile() reports it as a
/// CompileError and deserializeProgram() as a common::DeserializeError.
class VerifyError : public common::Error {
public:
  explicit VerifyError(const std::string& what) : common::Error(what) {}
};

/// Most private memory one work-item may use across all of its live frames.
inline constexpr std::uint32_t kMaxPrivateArena = 1u << 20;

/// Most frames one work-item may have live (the kernel's own included).
inline constexpr std::uint32_t kMaxCallDepth = 64;

/// Verifies `program`, stores every kernel's proven bounds in
/// KernelInfo::bounds, fills an empty cycleCosts table and resolves the
/// handler table. Throws
/// VerifyError on the first violation, a wrong-length cycleCosts included.
void verify(Program& program);

/// How many operand-stack slots one instruction pops and then pushes.
struct StackEffect {
  std::uint32_t pops = 0;
  std::uint32_t pushes = 0;
};

/// The stack effect of `in`: the opcode's row, except that a call's comes
/// from its callee's signature and a builtin's from its arity. A call
/// target must index program.functions (the verifier checks operands
/// first).
StackEffect stackEffect(const Program& program, const Instr& in);

/// True for the instructions a straight-line scan must stop at: every row
/// whose flow is not Flow::Next (jumps, returns, traps, barriers).
bool endsStraightLine(const Instr& in);

} // namespace clc
