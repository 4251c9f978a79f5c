// Bytecode-to-bytecode optimizer, run once at ocl::Program::build() time.
//
// Pipeline (each pass individually toggleable through OptOptions):
//
//   1. Per-basic-block symbolic stack simulation: constant folding,
//      frame-slot constant propagation, algebraic simplification and
//      strength reduction (x*1, x+0, mul/div/rem by a power of two),
//      and folding of branches on known conditions.
//   2. Dead-code elimination: unreachable code, push/pop pairs, and
//      frame stores whose slots are provably never read again.
//   3. Peephole fusion into superinstructions (LoadFrame, StoreFrame,
//      BinConst, FrameBin, FrameBin2, LoadBin, CmpJz/CmpJnz, MulAdd),
//      iterated to a fixpoint with compaction in between so fusions
//      enable each other. Jump threading (constant pushes flowing into a
//      [PushConst, CmpJz/CmpJnz] head collapse to one Jmp — the `&&`/`||`
//      diamonds) and store->load forwarding (a frame spill whose slot has
//      exactly one reader stays on the operand stack) run in the same
//      fixpoint, since they feed on fusion products.
//
// Timing-invariance contract
// --------------------------
// The optimizer exists to make the *host* interpreter faster; the
// simulated device time of a launch must not change. Every transform
// therefore maintains Program::cycleCosts, a per-instruction cycle table
// seeded from instrCycleCost():
//
//   * a fused superinstruction is charged the summed cost of the exact
//     sequence it replaced;
//   * a deleted instruction transfers its cost onto the next surviving
//     instruction of the same basic block (same execution count); when no
//     such receiver exists the instruction is kept as a costed Nop
//     instead of being deleted;
//   * unreachable code is removed without transfer (it never executed).
//
// Constant folding calls exactly the scalar routines the interpreter
// runs (clc/eval.h), so O2 results are bit-identical to O0. The VM then
// charges cycleCosts[pc] per dispatch: per-item cycle counts — and with
// them LaunchStats::totalCycles and every per-group sum/max — are
// invariant across optimization levels, while wall-clock time drops with
// the dynamic instruction count.
#pragma once

#include <cstdint>

#include "clc/bytecode.h"

namespace clc {

enum class OptLevel : std::uint8_t {
  O0 = 0, // raw codegen output
  O2 = 2, // folding, propagation, algebraic, DCE, superinstruction fusion
};

/// Per-pass switches; used directly by tests, derived from OptLevel in
/// normal builds.
struct OptOptions {
  bool constantFolding = true; // fold constants and known branches
  bool algebraic = true;       // identities, strength reduction, cond-norm
  bool deadCode = true;        // unreachable code, push/pop pairs, dead stores
  bool fuse = true;            // superinstruction fusion

  static OptOptions forLevel(OptLevel level) noexcept {
    OptOptions o;
    if (level == OptLevel::O0) {
      o.constantFolding = o.algebraic = o.deadCode = o.fuse = false;
    }
    return o;
  }
};

/// What the optimizer did (for logging, benchmarks, and tests).
struct OptStats {
  std::uint32_t foldedInstrs = 0;     // constant-folded operations
  std::uint32_t propagatedLoads = 0;  // frame loads replaced by constants
  std::uint32_t simplifiedInstrs = 0; // algebraic identities + strength red.
  std::uint32_t foldedBranches = 0;   // known-condition branches + threading
  std::uint32_t fusedInstrs = 0;      // superinstructions created
  std::uint32_t deadStores = 0;       // frame stores turned into pops
  std::uint32_t forwardedStores = 0;  // spill/reload pairs kept on the stack
  std::uint32_t removedInstrs = 0;    // instructions deleted by compaction
};

/// Optimizes `program` in place at `level` and stamps program.optLevel.
/// O0 leaves the code untouched. O2 rewrites cycleCosts per the
/// timing-invariance contract above. Every level ends by re-verifying the
/// program (verify.h), which the VM requires.
OptStats optimize(Program& program, OptLevel level);

/// Pass-selectable variant for tests. Does not change program.optLevel and
/// does not verify: the result cannot run until verify() accepts it.
OptStats optimizeWith(Program& program, const OptOptions& opts);

} // namespace clc
