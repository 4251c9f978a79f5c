#include "clc/opt.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "clc/builtins.h"
#include "clc/eval.h"
#include "clc/verify.h"

namespace clc {
namespace {

using namespace eval;

constexpr Instr kNop{Op::Nop, TypeTag::I32, 0};

// ---------------------------------------------------------------------------
// Shared analyses
// ---------------------------------------------------------------------------

/// Reachable instructions, per function, by DFS over fall-through and jump
/// edges. Instructions outside every function region are conservatively
/// treated as reachable.
std::vector<bool> computeReachable(const Program& p) {
  const std::size_t n = p.code.size();
  std::vector<bool> covered(n, false);
  std::vector<bool> reach(n, false);
  std::vector<std::uint32_t> work;
  for (const FunctionInfo& f : p.functions) {
    const std::size_t end = std::min<std::size_t>(f.codeEnd, n);
    for (std::size_t pc = f.codeStart; pc < end; ++pc) {
      covered[pc] = true;
    }
    if (f.codeStart >= end) {
      continue;
    }
    work.clear();
    reach[f.codeStart] = true;
    work.push_back(f.codeStart);
    auto visit = [&](std::int64_t t) {
      if (t >= std::int64_t(f.codeStart) && t < std::int64_t(end) &&
          !reach[std::size_t(t)]) {
        reach[std::size_t(t)] = true;
        work.push_back(std::uint32_t(t));
      }
    };
    while (!work.empty()) {
      const std::uint32_t pc = work.back();
      work.pop_back();
      const Instr& in = p.code[pc];
      if (hasBranchTarget(in.op)) {
        visit(branchTarget(in));
      }
      if (fallsThrough(in.op)) {
        visit(pc + 1);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!covered[i]) {
      reach[i] = true;
    }
  }
  return reach;
}

/// Basic-block leaders: function entries and jump targets. When `reachable`
/// is given, targets of unreachable jumps are ignored.
std::vector<bool> computeLeaders(const Program& p,
                                 const std::vector<bool>* reachable) {
  const std::size_t n = p.code.size();
  std::vector<bool> lead(n, false);
  for (const FunctionInfo& f : p.functions) {
    if (f.codeStart < n) {
      lead[f.codeStart] = true;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (reachable && !(*reachable)[i]) {
      continue;
    }
    const Instr& in = p.code[i];
    const std::int64_t t = hasBranchTarget(in.op) ? branchTarget(in) : -1;
    if (t >= 0 && std::size_t(t) < n) {
      lead[std::size_t(t)] = true;
    }
  }
  return lead;
}

/// Steps a straight-line region scan over `in`, tracking the stack `depth`
/// above the slot the scan follows. False where the scan must stop: a
/// control transfer or barrier, or an instruction that would pop that slot.
bool scanStep(const Program& p, const Instr& in, int& depth) {
  if (endsStraightLine(in)) {
    return false;
  }
  const StackEffect e = stackEffect(p, in);
  if (int(e.pops) > depth) {
    return false;
  }
  depth += int(e.pushes) - int(e.pops);
  return true;
}

std::int32_t internConst(Program& p, std::uint64_t v) {
  for (std::size_t i = 0; i < p.constants.size(); ++i) {
    if (p.constants[i] == v) {
      return std::int32_t(i);
    }
  }
  p.constants.push_back(v);
  return std::int32_t(p.constants.size() - 1);
}

/// The slot a frame Load would produce after a Store of slot `v` with the
/// same tag: memcpy of the low typeTagSize bytes, then canonicalization.
std::uint64_t frameRoundTrip(std::uint64_t v, TypeTag tag) {
  const std::size_t size = typeTagSize(tag);
  const std::uint64_t masked =
      size == 8 ? v : (v & ((1ULL << (8 * size)) - 1));
  return canon(masked, tag);
}

// ---------------------------------------------------------------------------
// Pass 1: symbolic per-block stack simulation
// ---------------------------------------------------------------------------
//
// Models the top of the operand stack through each basic block. An entry is
// "owning" (producer >= 0) when the tracked value is consumed exactly once
// and the producing push can still be deleted; Dup/Swap/Rot3 strip
// ownership because deleting the producer would change what they shuffle.
// The model resets at every leader, which automatically confines each
// rewrite to one straight-line region with a single execution count — the
// property the cycle-cost transfers below rely on.

struct SimEntry {
  enum class Kind : std::uint8_t { Unknown, Const, FrameAddr };
  Kind kind = Kind::Unknown;
  std::uint64_t value = 0;   // Const: slot value; FrameAddr: byte offset
  std::int32_t producer = -1;
};

/// Integer identities restricted to 64-bit tags, where canonicalization is
/// the identity and x op k == x holds slot-exactly. Narrower tags would
/// need the lhs slot to be proven canonical; floats are excluded because
/// x*1.0 may quiet a signalling NaN payload on the host.
bool isIdentityRhs(Op op, TypeTag tag, std::uint64_t rhs) {
  if (isFloatTag(tag) || tagBits(tag) != 64) {
    return false;
  }
  switch (op) {
    case Op::Add:
    case Op::Sub:
    case Op::Shl:
    case Op::Shr:
    case Op::BitOr:
    case Op::BitXor:
      return rhs == 0;
    case Op::Mul:
    case Op::Div:
      return rhs == 1;
    case Op::BitAnd:
      return rhs == ~0ULL;
    default:
      return false;
  }
}

void simFunction(Program& p, const FunctionInfo& f, const OptOptions& opts,
                 std::vector<std::uint32_t>& costs,
                 const std::vector<bool>& lead, OptStats& stats) {
  const std::size_t end = std::min<std::size_t>(f.codeEnd, p.code.size());
  std::vector<SimEntry> sim;
  struct FrameConst {
    std::uint32_t off;
    TypeTag tag;
    std::uint64_t value;
  };
  std::vector<FrameConst> fc;

  auto pop1 = [&]() -> SimEntry {
    if (sim.empty()) {
      return SimEntry{};
    }
    SimEntry e = sim.back();
    sim.pop_back();
    return e;
  };
  auto pushU = [&] { sim.push_back(SimEntry{}); };
  auto pushE = [&](SimEntry::Kind k, std::uint64_t v, std::int32_t prod) {
    sim.push_back(SimEntry{k, v, prod});
  };
  // Pads the modeled suffix with Unknowns so shuffles can be applied; the
  // real stack is at least this deep or the program traps anyway.
  auto ensure = [&](std::size_t d) {
    while (sim.size() < d) {
      sim.insert(sim.begin(), SimEntry{});
    }
  };
  auto clearAll = [&] {
    sim.clear();
    fc.clear();
  };
  auto invalidateFrame = [&](std::uint64_t off, std::size_t size) {
    fc.erase(std::remove_if(fc.begin(), fc.end(),
                            [&](const FrameConst& c) {
                              return off < c.off + typeTagSize(c.tag) &&
                                     std::uint64_t(c.off) < off + size;
                            }),
             fc.end());
  };
  auto findFrameConst = [&](std::uint64_t off,
                            TypeTag tag) -> const FrameConst* {
    for (const FrameConst& c : fc) {
      if (c.off == off && c.tag == tag) {
        return &c;
      }
    }
    return nullptr;
  };
  // Deletes the producing push, moving its cycles onto the instruction at
  // `into` (same basic block, same execution count: timing-invariant).
  auto nopOut = [&](std::int32_t producer, std::size_t into) {
    p.code[std::size_t(producer)] = kNop;
    costs[into] += costs[std::size_t(producer)];
    costs[std::size_t(producer)] = 0;
  };

  for (std::size_t pc = f.codeStart; pc < end; ++pc) {
    if (lead[pc]) {
      clearAll();
    }
    Instr& in = p.code[pc];
    if (isBinaryArithOp(in.op)) {
      const SimEntry rhs = pop1();
      const SimEntry lhs = pop1();
      if (opts.constantFolding && lhs.kind == SimEntry::Kind::Const &&
          rhs.kind == SimEntry::Kind::Const && lhs.producer >= 0 &&
          rhs.producer >= 0) {
        std::uint64_t out = 0;
        if (evalArith(in.op, in.tag, lhs.value, rhs.value, out) ==
            EvalStatus::Ok) {
          nopOut(lhs.producer, pc);
          nopOut(rhs.producer, pc);
          in = Instr{Op::PushConst, in.tag, internConst(p, out)};
          pushE(SimEntry::Kind::Const, out, std::int32_t(pc));
          ++stats.foldedInstrs;
          continue;
        }
      }
      if (opts.algebraic && rhs.kind == SimEntry::Kind::Const &&
          rhs.producer >= 0) {
        if (isIdentityRhs(in.op, in.tag, rhs.value)) {
          // x op k == x: drop the push and the op; their cycles ride on
          // the Nops until compaction re-homes them.
          p.code[std::size_t(rhs.producer)] = kNop;
          in = kNop;
          sim.push_back(lhs);
          ++stats.simplifiedInstrs;
          continue;
        }
        if (!isFloatTag(in.tag) && rhs.value > 1 &&
            (rhs.value & (rhs.value - 1)) == 0) {
          std::uint32_t sh = 0;
          while ((1ULL << sh) != rhs.value) {
            ++sh;
          }
          if (sh < tagBits(in.tag)) {
            // Power-of-two strength reduction. The cost table keeps the
            // original op's (higher) cycle charge.
            if (in.op == Op::Mul) {
              p.code[std::size_t(rhs.producer)].a = internConst(p, sh);
              in.op = Op::Shl;
              pushU();
              ++stats.simplifiedInstrs;
              continue;
            }
            if ((in.op == Op::Div || in.op == Op::Rem) &&
                !isSignedTag(in.tag)) {
              p.code[std::size_t(rhs.producer)].a = internConst(
                  p, in.op == Op::Div ? std::uint64_t(sh) : rhs.value - 1);
              in.op = in.op == Op::Div ? Op::Shr : Op::BitAnd;
              pushU();
              ++stats.simplifiedInstrs;
              continue;
            }
          }
        }
      }
      pushU();
      continue;
    }
    if (isCompareOp(in.op)) {
      const SimEntry rhs = pop1();
      const SimEntry lhs = pop1();
      if (opts.constantFolding && lhs.kind == SimEntry::Kind::Const &&
          rhs.kind == SimEntry::Kind::Const && lhs.producer >= 0 &&
          rhs.producer >= 0) {
        bool hit = false;
        if (evalCompare(in.op, in.tag, lhs.value, rhs.value, hit) ==
            EvalStatus::Ok) {
          nopOut(lhs.producer, pc);
          nopOut(rhs.producer, pc);
          const std::uint64_t out = hit ? 1 : 0;
          in = Instr{Op::PushConst, TypeTag::I32, internConst(p, out)};
          pushE(SimEntry::Kind::Const, out, std::int32_t(pc));
          ++stats.foldedInstrs;
          continue;
        }
      }
      pushU();
      continue;
    }
    switch (in.op) {
      case Op::Nop:
        break;
      case Op::PushConst:
        if (std::size_t(in.a) < p.constants.size()) {
          pushE(SimEntry::Kind::Const, p.constants[std::size_t(in.a)],
                std::int32_t(pc));
        } else {
          pushU();
        }
        break;
      case Op::PushFrameAddr:
        if (in.a >= 0) {
          pushE(SimEntry::Kind::FrameAddr, std::uint64_t(in.a),
                std::int32_t(pc));
        } else {
          pushU();
        }
        break;
      case Op::PushLocalAddr:
        pushU();
        break;
      case Op::Dup: {
        ensure(1);
        sim.back().producer = -1; // the value now has two consumers
        sim.push_back(sim.back());
        break;
      }
      case Op::Pop:
        pop1();
        break;
      case Op::Swap:
        ensure(2);
        std::swap(sim[sim.size() - 1], sim[sim.size() - 2]);
        sim[sim.size() - 1].producer = -1;
        sim[sim.size() - 2].producer = -1;
        break;
      case Op::Rot3: {
        ensure(3);
        const SimEntry a = sim[sim.size() - 3];
        sim[sim.size() - 3] = sim[sim.size() - 2];
        sim[sim.size() - 2] = sim[sim.size() - 1];
        sim[sim.size() - 1] = a;
        for (std::size_t k = 1; k <= 3; ++k) {
          sim[sim.size() - k].producer = -1;
        }
        break;
      }
      case Op::Load: {
        const SimEntry addr = pop1();
        if (addr.kind == SimEntry::Kind::FrameAddr) {
          if (const FrameConst* c = findFrameConst(addr.value, in.tag)) {
            if (opts.constantFolding && addr.producer >= 0) {
              nopOut(addr.producer, pc);
              in = Instr{Op::PushConst, in.tag, internConst(p, c->value)};
              pushE(SimEntry::Kind::Const, c->value, std::int32_t(pc));
              ++stats.propagatedLoads;
            } else {
              pushE(SimEntry::Kind::Const, c->value, -1);
            }
            break;
          }
        }
        pushU();
        break;
      }
      case Op::Store:
      case Op::StoreKeep: {
        SimEntry val = pop1();
        const SimEntry addr = pop1();
        if (addr.kind == SimEntry::Kind::FrameAddr) {
          invalidateFrame(addr.value, typeTagSize(in.tag));
          if (val.kind == SimEntry::Kind::Const) {
            fc.push_back(FrameConst{std::uint32_t(addr.value), in.tag,
                                    frameRoundTrip(val.value, in.tag)});
          }
        } else {
          fc.clear(); // an unknown pointer may alias the frame
        }
        if (in.op == Op::StoreKeep) {
          val.producer = -1;
          sim.push_back(val);
        }
        break;
      }
      case Op::MemCopy:
        pop1();
        pop1();
        fc.clear();
        break;
      case Op::Neg:
      case Op::BitNot:
      case Op::LogNot: {
        const SimEntry v = pop1();
        if (opts.constantFolding && v.kind == SimEntry::Kind::Const &&
            v.producer >= 0) {
          const std::uint64_t out =
              in.op == Op::Neg    ? evalNeg(in.tag, v.value)
              : in.op == Op::BitNot ? canon(~v.value, in.tag)
                                    : (v.value == 0 ? 1 : 0);
          nopOut(v.producer, pc);
          in = Instr{Op::PushConst, in.tag, internConst(p, out)};
          pushE(SimEntry::Kind::Const, out, std::int32_t(pc));
          ++stats.foldedInstrs;
        } else {
          pushU();
        }
        break;
      }
      case Op::Conv: {
        const SimEntry v = pop1();
        const auto from = TypeTag((in.a >> 8) & 0xff);
        const auto to = TypeTag(in.a & 0xff);
        if (opts.constantFolding && v.kind == SimEntry::Kind::Const &&
            v.producer >= 0) {
          const std::uint64_t out = convert(v.value, from, to);
          nopOut(v.producer, pc);
          in = Instr{Op::PushConst, to, internConst(p, out)};
          pushE(SimEntry::Kind::Const, out, std::int32_t(pc));
          ++stats.foldedInstrs;
        } else {
          pushU();
        }
        break;
      }
      case Op::Jz:
      case Op::Jnz: {
        const SimEntry cond = pop1();
        if (opts.constantFolding && cond.kind == SimEntry::Kind::Const) {
          const bool taken = (in.op == Op::Jz) == (cond.value == 0);
          if (cond.producer >= 0) {
            nopOut(cond.producer, pc);
            in = taken ? Instr{Op::Jmp, in.tag, in.a} : kNop;
            ++stats.foldedBranches;
          } else if (!taken) {
            in = Instr{Op::Pop, in.tag, 0}; // still must drop the condition
            ++stats.foldedBranches;
          }
        }
        clearAll();
        break;
      }
      case Op::Call:
      case Op::CallBuiltin: {
        if (in.op == Op::Call ? std::size_t(in.a) >= p.functions.size()
                              : Builtin(in.a) == Builtin::Barrier) {
          clearAll();
          break;
        }
        const StackEffect e = stackEffect(p, in);
        for (std::uint32_t k = 0; k < e.pops; ++k) {
          pop1();
        }
        for (std::uint32_t k = 0; k < e.pushes; ++k) {
          pushU();
        }
        // A callee may write through a passed frame pointer, an atomic
        // through an escaped one.
        if (in.op == Op::Call || isAtomic(Builtin(in.a))) {
          fc.clear();
        }
        break;
      }
      default:
        // Control flow, barriers, superinstructions: end of the modeled
        // region.
        clearAll();
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Pattern passes
// ---------------------------------------------------------------------------

/// Drops the `!= 0` normalization codegen appends to conditions that are
/// already 0/1: [cmp/log_not, push_const 0, cmp_ne] -> [cmp/log_not].
void condNormFunction(Program& p, const FunctionInfo& f,
                      const std::vector<bool>& lead, OptStats& stats) {
  const std::size_t end = std::min<std::size_t>(f.codeEnd, p.code.size());
  for (std::size_t i = f.codeStart; i + 2 < end; ++i) {
    const Instr& a = p.code[i];
    const Instr& b = p.code[i + 1];
    const Instr& c = p.code[i + 2];
    if (!(isCompareOp(a.op) || a.op == Op::LogNot)) {
      continue;
    }
    if (b.op != Op::PushConst || c.op != Op::CmpNe || isFloatTag(c.tag)) {
      continue;
    }
    if (lead[i + 1] || lead[i + 2]) {
      continue;
    }
    if (std::size_t(b.a) >= p.constants.size() ||
        p.constants[std::size_t(b.a)] != 0) {
      continue;
    }
    p.code[i + 1] = kNop;
    p.code[i + 2] = kNop;
    ++stats.simplifiedInstrs;
  }
}

/// Removes [side-effect-free push, Pop] pairs.
void pushPopFunction(Program& p, const FunctionInfo& f,
                     const std::vector<bool>& lead) {
  const std::size_t end = std::min<std::size_t>(f.codeEnd, p.code.size());
  for (std::size_t i = f.codeStart; i + 1 < end; ++i) {
    const Op op = p.code[i].op;
    if (op != Op::PushConst && op != Op::PushFrameAddr &&
        op != Op::PushLocalAddr && op != Op::Dup && op != Op::LoadFrame) {
      continue;
    }
    if (p.code[i + 1].op != Op::Pop || lead[i + 1]) {
      continue;
    }
    p.code[i] = kNop;
    p.code[i + 1] = kNop;
    ++i;
  }
}

/// Turns frame stores into pops when the stored slot is provably never
/// read again: the function has no PushFrameAddr left (so the frame cannot
/// be aliased by a pointer), and no LoadFrame/FrameBin/FrameBin2 reads
/// overlap the stored range. Only effective after fusion has rewritten
/// frame accesses.
void deadStoreFunction(Program& p, const FunctionInfo& f, OptStats& stats) {
  const std::size_t end = std::min<std::size_t>(f.codeEnd, p.code.size());
  for (std::size_t i = f.codeStart; i < end; ++i) {
    if (p.code[i].op == Op::PushFrameAddr) {
      return;
    }
  }
  struct Range {
    std::uint64_t lo, hi;
  };
  std::vector<Range> reads;
  if (f.returnsStruct) {
    reads.push_back({0, 8}); // sret slot, read by RetStruct
  }
  for (std::size_t i = f.codeStart; i < end; ++i) {
    const Instr& in = p.code[i];
    if (in.op == Op::LoadFrame) {
      reads.push_back({std::uint64_t(in.a),
                       std::uint64_t(in.a) + typeTagSize(in.tag)});
    } else if (in.op == Op::FrameBin) {
      reads.push_back({std::uint64_t(embeddedOperand(in.a)),
                       std::uint64_t(embeddedOperand(in.a)) +
                           typeTagSize(in.tag)});
    } else if (in.op == Op::FrameBin2) {
      reads.push_back({std::uint64_t(frame2X(in.a)),
                       std::uint64_t(frame2X(in.a)) + typeTagSize(in.tag)});
      reads.push_back({std::uint64_t(frame2Y(in.a)),
                       std::uint64_t(frame2Y(in.a)) + typeTagSize(in.tag)});
    }
  }
  for (std::size_t i = f.codeStart; i < end; ++i) {
    Instr& in = p.code[i];
    if (in.op != Op::StoreFrame) {
      continue;
    }
    const std::uint64_t lo = std::uint64_t(in.a);
    const std::uint64_t hi = lo + typeTagSize(in.tag);
    bool live = false;
    for (const Range& r : reads) {
      if (lo < r.hi && r.lo < hi) {
        live = true;
        break;
      }
    }
    if (!live) {
      in = Instr{Op::Pop, in.tag, 0}; // keeps the store's cycle charge
      ++stats.deadStores;
    }
  }
}

// ---------------------------------------------------------------------------
// Fusion
// ---------------------------------------------------------------------------

bool fuseFunction(Program& p, const FunctionInfo& f,
                  std::vector<std::uint32_t>& costs,
                  const std::vector<bool>& lead, OptStats& stats) {
  const std::size_t end = std::min<std::size_t>(f.codeEnd, p.code.size());
  bool changed = false;

  // Folds instruction `from` into `into`: `into` inherits its cycles so
  // the fused instruction is charged exactly the sequence it replaces.
  auto mergeInto = [&](std::size_t from, std::size_t into) {
    costs[into] += costs[from];
    costs[from] = 0;
    p.code[from] = kNop;
    ++stats.fusedInstrs;
    changed = true;
  };

  // [PushFrameAddr, <region of net +1 that never touches the address
  // slot>, Store] -> [<region>, StoreFrame]. The scan tracks the number of
  // stack slots above the pushed address; any instruction that would reach
  // the address slot, has unknown stack effect, or sits at a leader aborts.
  auto tryStoreRewrite = [&](std::size_t i) {
    const Instr pfa = p.code[i];
    int depth = 0;
    for (std::size_t j = i + 1; j < end && j < i + 64; ++j) {
      if (lead[j]) {
        return false;
      }
      const Instr& rj = p.code[j];
      if (rj.op == Op::Store && depth == 1) {
        if (std::uint64_t(pfa.a) + typeTagSize(rj.tag) > f.frameSize) {
          return false;
        }
        p.code[j] = Instr{Op::StoreFrame, rj.tag, pfa.a};
        costs[j] += costs[i];
        costs[i] = 0;
        p.code[i] = kNop;
        ++stats.fusedInstrs;
        changed = true;
        return true;
      }
      if (!scanStep(p, rj, depth)) {
        return false;
      }
    }
    return false;
  };

  // [PushFrameAddr, Dup, Load, <region>, Store] (the ++/--/compound-assign
  // idiom) -> [LoadFrame, <region>, StoreFrame].
  auto tryIncIdiom = [&](std::size_t i) {
    const Instr pfa = p.code[i];
    if (i + 3 >= end || lead[i + 1] || lead[i + 2]) {
      return false;
    }
    if (p.code[i + 1].op != Op::Dup || p.code[i + 2].op != Op::Load) {
      return false;
    }
    const TypeTag lt = p.code[i + 2].tag;
    if (std::uint64_t(pfa.a) + typeTagSize(lt) > f.frameSize) {
      return false;
    }
    int depth = 1; // the loaded old value sits above the address slot
    for (std::size_t j = i + 3; j < end && j < i + 64; ++j) {
      if (lead[j]) {
        return false;
      }
      const Instr& rj = p.code[j];
      if (rj.op == Op::Store && depth == 1) {
        if (std::uint64_t(pfa.a) + typeTagSize(rj.tag) > f.frameSize) {
          return false;
        }
        p.code[i] = Instr{Op::LoadFrame, lt, pfa.a};
        costs[i] += costs[i + 1] + costs[i + 2];
        costs[i + 1] = 0;
        costs[i + 2] = 0;
        p.code[i + 1] = kNop;
        p.code[i + 2] = kNop;
        p.code[j] = Instr{Op::StoreFrame, rj.tag, pfa.a};
        stats.fusedInstrs += 2;
        changed = true;
        return true;
      }
      if (!scanStep(p, rj, depth)) {
        return false;
      }
    }
    return false;
  };

  // A compare feeding a conditional jump fuses to CmpJz/CmpJnz; skip
  // embedding such a compare into BinConst/FrameBin.
  auto cmpFeedsJump = [&](std::size_t i, Op op) {
    return isCompareOp(op) && i + 2 < end && !lead[i + 2] &&
           (p.code[i + 2].op == Op::Jz || p.code[i + 2].op == Op::Jnz);
  };

  for (std::size_t i = f.codeStart; i < end; ++i) {
    Instr& in = p.code[i];
    if (isCompareOp(in.op)) {
      if (i + 1 < end && !lead[i + 1] &&
          (p.code[i + 1].op == Op::Jz || p.code[i + 1].op == Op::Jnz)) {
        const std::int32_t t = p.code[i + 1].a;
        if (t >= 0 && t <= kCmpJumpTargetMask) {
          const bool jnz = p.code[i + 1].op == Op::Jnz;
          in = Instr{jnz ? Op::CmpJnz : Op::CmpJz, in.tag,
                     encodeCmpJump(in.op, t)};
          mergeInto(i + 1, i);
        }
      }
      continue;
    }
    switch (in.op) {
      case Op::PushFrameAddr: {
        if (in.a < 0) {
          break;
        }
        if (tryStoreRewrite(i) || tryIncIdiom(i)) {
          break;
        }
        if (i + 1 < end && !lead[i + 1] && p.code[i + 1].op == Op::Load) {
          const TypeTag t = p.code[i + 1].tag;
          if (std::uint64_t(in.a) + typeTagSize(t) <= f.frameSize) {
            in = Instr{Op::LoadFrame, t, in.a};
            mergeInto(i + 1, i);
          }
        }
        break;
      }
      case Op::PushConst: {
        if (i + 1 >= end || lead[i + 1] || in.a < 0 ||
            in.a > kEmbedOperandMask) {
          break;
        }
        const Instr& nx = p.code[i + 1];
        if (!(isBinaryArithOp(nx.op) || isCompareOp(nx.op)) ||
            cmpFeedsJump(i, nx.op)) {
          break;
        }
        in = Instr{Op::BinConst, nx.tag, encodeEmbedOp(nx.op, in.a)};
        mergeInto(i + 1, i);
        break;
      }
      case Op::LoadFrame: {
        if (i + 1 >= end || lead[i + 1] || in.a < 0) {
          break;
        }
        const Instr& nx = p.code[i + 1];
        // Cascade: [LoadFrame x, FrameBin op y] -> FrameBin2, both
        // operands straight from the frame.
        if (nx.op == Op::FrameBin && nx.tag == in.tag &&
            in.a <= kFrame2OffsetMask &&
            embeddedOperand(nx.a) <= kFrame2OffsetMask) {
          in = Instr{Op::FrameBin2, in.tag,
                     encodeFrame2(embeddedOp(nx.a), in.a,
                                  embeddedOperand(nx.a))};
          mergeInto(i + 1, i);
          break;
        }
        if (in.a > kEmbedOperandMask ||
            !(isBinaryArithOp(nx.op) || isCompareOp(nx.op)) ||
            nx.tag != in.tag || cmpFeedsJump(i, nx.op)) {
          break;
        }
        in = Instr{Op::FrameBin, in.tag, encodeEmbedOp(nx.op, in.a)};
        mergeInto(i + 1, i);
        break;
      }
      case Op::Load: {
        if (i + 1 >= end || lead[i + 1]) {
          break;
        }
        const Instr& nx = p.code[i + 1];
        if (!(isBinaryArithOp(nx.op) || isCompareOp(nx.op)) ||
            nx.tag != in.tag || cmpFeedsJump(i, nx.op)) {
          break;
        }
        in = Instr{Op::LoadBin, in.tag, std::int32_t(nx.op)};
        mergeInto(i + 1, i);
        break;
      }
      case Op::Mul: {
        if (i + 1 >= end || lead[i + 1] || p.code[i + 1].op != Op::Add) {
          break;
        }
        const TypeTag mt = in.tag;
        const TypeTag at = p.code[i + 1].tag;
        // Exact when the tags agree, or when both are 64-bit integer tags
        // (wrapping arithmetic is tag-independent at full width).
        const bool ok = mt == at || (!isFloatTag(mt) && !isFloatTag(at) &&
                                     tagBits(mt) == 64 && tagBits(at) == 64);
        if (!ok) {
          break;
        }
        in = Instr{Op::MulAdd, at, 0};
        mergeInto(i + 1, i);
        break;
      }
      default:
        break;
    }
  }
  return changed;
}

/// Threads a [PushConst K] that flows — through an unconditional Jmp or by
/// falling into a leader — straight into a [PushConst C, CmpJz/CmpJnz]
/// block head: the compare's outcome is known, so the whole path collapses
/// into one Jmp charged the cycles of every instruction it skips. The
/// skipped head keeps its own costs for its other predecessors; the static
/// table total grows by the copy, but each execution path's cycle count is
/// exactly preserved, which is the invariant that matters. This collapses
/// the diamonds codegen emits for `&&`/`||`. Orphaned heads are dropped
/// cost-free as unreachable at the next compaction.
bool threadFunction(Program& p, const FunctionInfo& f,
                    std::vector<std::uint32_t>& costs,
                    const std::vector<bool>& lead, OptStats& stats) {
  const std::size_t end = std::min<std::size_t>(f.codeEnd, p.code.size());
  bool changed = false;
  // Targets of Jmps created in this very pass: they become leaders only at
  // the next computeLeaders, but must already block rewrites that assume
  // no mid-block entry (e.g. Nopping a newly targeted Jmp).
  std::vector<bool> newLead(p.code.size(), false);
  for (std::size_t i = f.codeStart; i + 1 < end; ++i) {
    const Instr in = p.code[i];
    if (in.op != Op::PushConst || in.a < 0 ||
        std::size_t(in.a) >= p.constants.size()) {
      continue;
    }
    // Where does control go with the constant on top of the stack?
    std::size_t head = 0;
    bool viaJmp = false;
    if (p.code[i + 1].op == Op::Jmp && !lead[i + 1] && !newLead[i + 1] &&
        p.code[i + 1].a >= 0) {
      head = std::size_t(p.code[i + 1].a);
      viaJmp = true;
    } else if (lead[i + 1] || newLead[i + 1]) {
      head = i + 1;
    } else {
      continue;
    }
    if (head < f.codeStart || head + 1 >= end || lead[head + 1] ||
        newLead[head + 1]) {
      continue;
    }
    const Instr& hc = p.code[head];
    const Instr& hj = p.code[head + 1];
    if (hc.op != Op::PushConst || hc.a < 0 ||
        std::size_t(hc.a) >= p.constants.size()) {
      continue;
    }
    if (hj.op != Op::CmpJz && hj.op != Op::CmpJnz) {
      continue;
    }
    bool hit = false;
    if (evalCompare(cmpFromJump(hj.a), hj.tag,
                    p.constants[std::size_t(in.a)],
                    p.constants[std::size_t(hc.a)], hit) != EvalStatus::Ok) {
      continue;
    }
    const bool jump = hit == (hj.op == Op::CmpJnz);
    const std::int32_t target =
        jump ? cmpJumpTarget(hj.a) : std::int32_t(head + 2);
    // The new Jmp is charged everything the threaded path used to run.
    std::uint32_t cost = costs[i] + costs[head] + costs[head + 1];
    if (viaJmp) {
      cost += costs[i + 1];
      costs[i + 1] = 0;
      p.code[i + 1] = kNop;
    }
    p.code[i] = Instr{Op::Jmp, TypeTag::I32, target};
    costs[i] = cost;
    if (target >= 0 && std::size_t(target) < p.code.size()) {
      newLead[std::size_t(target)] = true;
    }
    ++stats.foldedBranches;
    changed = true;
  }
  return changed;
}

/// True when `in` provably leaves a value on top of the stack that is
/// already canonical for `tag` — i.e. a StoreFrame/LoadFrame round-trip
/// with that tag would reproduce it bit-exactly.
bool producesCanonical(const Program& p, const Instr& in, TypeTag tag) {
  if (isBinaryArithOp(in.op) || in.op == Op::Neg || in.op == Op::BitNot) {
    return in.tag == tag;
  }
  switch (in.op) {
    case Op::Load:
    case Op::LoadFrame:
    case Op::MulAdd:
      return in.tag == tag;
    case Op::BinConst:
    case Op::FrameBin:
      return in.tag == tag && !isCompareOp(embeddedOp(in.a));
    case Op::LoadBin:
      return in.tag == tag && !isCompareOp(Op(in.a));
    case Op::FrameBin2:
      return in.tag == tag && !isCompareOp(frame2Op(in.a));
    case Op::Conv:
      return TypeTag(in.a & 0xff) == tag;
    case Op::PushConst:
      return std::size_t(in.a) < p.constants.size() &&
             p.constants[std::size_t(in.a)] ==
                 frameRoundTrip(p.constants[std::size_t(in.a)], tag);
    default:
      return false;
  }
}

/// Keeps a value on the operand stack instead of spilling it through a
/// frame slot: [StoreFrame x, <region>, LoadFrame x] -> both Nops, when
/// the slot is written and read nowhere else, the frame is never
/// address-taken (no PushFrameAddr, so no pointer can alias it), the
/// straight-line region leaves the stored value undisturbed, and the
/// producer pushed an already-canonical value (so skipping the round-trip
/// is bit-exact). The pair's cycles stay on the Nops and re-home onto the
/// next same-block instruction at compaction.
bool forwardFunction(Program& p, const FunctionInfo& f,
                     std::vector<std::uint32_t>& costs,
                     const std::vector<bool>& lead, OptStats& stats) {
  (void)costs; // the Nops keep their charge; compact() re-homes it
  const std::size_t end = std::min<std::size_t>(f.codeEnd, p.code.size());
  for (std::size_t i = f.codeStart; i < end; ++i) {
    if (p.code[i].op == Op::PushFrameAddr) {
      return false;
    }
  }
  bool changed = false;
  for (std::size_t i = f.codeStart; i < end; ++i) {
    const Instr st = p.code[i];
    if (st.op != Op::StoreFrame) {
      continue;
    }
    const std::uint64_t lo = std::uint64_t(st.a);
    const std::uint64_t hi = lo + typeTagSize(st.tag);
    if (f.returnsStruct && lo < 8) {
      continue; // sret slot, read implicitly by RetStruct
    }
    if (i == f.codeStart || lead[i] ||
        !producesCanonical(p, p.code[i - 1], st.tag)) {
      continue;
    }
    // Exactly one read — a same-tag LoadFrame of the same offset — and no
    // other write may touch the slot anywhere in the function.
    std::size_t read = 0;
    int nreads = 0;
    bool clean = true;
    auto overlaps = [&](std::uint64_t l, std::uint64_t h) {
      return lo < h && l < hi;
    };
    for (std::size_t j = f.codeStart; j < end && clean; ++j) {
      if (j == i) {
        continue;
      }
      const Instr& c = p.code[j];
      switch (c.op) {
        case Op::LoadFrame:
          if (overlaps(std::uint64_t(c.a),
                       std::uint64_t(c.a) + typeTagSize(c.tag))) {
            ++nreads;
            if (nreads == 1 && c.tag == st.tag && std::uint64_t(c.a) == lo) {
              read = j;
            } else {
              clean = false;
            }
          }
          break;
        case Op::StoreFrame:
          if (overlaps(std::uint64_t(c.a),
                       std::uint64_t(c.a) + typeTagSize(c.tag))) {
            clean = false;
          }
          break;
        case Op::FrameBin:
          if (overlaps(std::uint64_t(embeddedOperand(c.a)),
                       std::uint64_t(embeddedOperand(c.a)) +
                           typeTagSize(c.tag))) {
            clean = false;
          }
          break;
        case Op::FrameBin2:
          if (overlaps(std::uint64_t(frame2X(c.a)),
                       std::uint64_t(frame2X(c.a)) + typeTagSize(c.tag)) ||
              overlaps(std::uint64_t(frame2Y(c.a)),
                       std::uint64_t(frame2Y(c.a)) + typeTagSize(c.tag))) {
            clean = false;
          }
          break;
        default:
          break;
      }
    }
    if (!clean || nreads != 1 || read <= i || lead[read]) {
      continue;
    }
    // Reaching the read means having just run the store (same block), so
    // the region between must be straight-line, net-neutral on the stack,
    // and never dip down to the stored value.
    bool ok = true;
    int depth = 0;
    for (std::size_t j = i + 1; j < read; ++j) {
      if (lead[j]) {
        ok = false;
        break;
      }
      if (!scanStep(p, p.code[j], depth)) {
        ok = false;
        break;
      }
    }
    if (!ok || depth != 0) {
      continue;
    }
    p.code[i] = kNop;
    p.code[read] = kNop;
    ++stats.forwardedStores;
    changed = true;
  }
  return changed;
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

/// Deletes Nops (and, optionally, unreachable code), remapping jump
/// targets and function ranges. A costed Nop transfers its cycles to the
/// next surviving instruction of its basic block; when a leader intervenes
/// the Nop is kept instead, so per-item cycle counts never change.
/// Unreachable instructions never executed and are dropped cost-free.
void compact(Program& p, std::vector<std::uint32_t>& costs,
             bool removeUnreachable, OptStats& stats) {
  const std::size_t n = p.code.size();
  if (n == 0) {
    return;
  }
  std::vector<bool> reach;
  if (removeUnreachable) {
    reach = computeReachable(p);
  }
  const std::vector<bool> lead =
      computeLeaders(p, removeUnreachable ? &reach : nullptr);

  std::vector<bool> keep(n, true);
  for (std::size_t i = 0; i < n; ++i) {
    if (removeUnreachable && !reach[i]) {
      keep[i] = false;
      costs[i] = 0;
      continue;
    }
    if (p.code[i].op != Op::Nop) {
      continue;
    }
    if (costs[i] != 0) {
      std::size_t j = i + 1;
      while (j < n && !lead[j] && p.code[j].op == Op::Nop) {
        ++j;
      }
      if (j >= n || lead[j]) {
        continue; // no same-block receiver: retain the costed Nop
      }
      costs[j] += costs[i];
      costs[i] = 0;
    }
    keep[i] = false;
  }

  std::vector<std::uint32_t> remap(n + 1, 0);
  std::uint32_t live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    remap[i] = live;
    if (keep[i]) {
      ++live;
    }
  }
  remap[n] = live;
  if (live == n) {
    return;
  }

  std::vector<Instr> newCode;
  std::vector<std::uint32_t> newCosts;
  newCode.reserve(live);
  newCosts.reserve(live);
  for (std::size_t i = 0; i < n; ++i) {
    if (!keep[i]) {
      continue;
    }
    Instr in = p.code[i];
    if (hasBranchTarget(in.op)) {
      const std::int32_t t = branchTarget(in);
      if (t >= 0 && std::size_t(t) <= n) {
        setBranchTarget(in, std::int32_t(remap[std::size_t(t)]));
      }
    }
    newCode.push_back(in);
    newCosts.push_back(costs[i]);
  }
  stats.removedInstrs += std::uint32_t(n - live);
  p.code = std::move(newCode);
  costs = std::move(newCosts);
  for (FunctionInfo& f : p.functions) {
    f.codeStart = remap[std::min<std::size_t>(f.codeStart, n)];
    f.codeEnd = remap[std::min<std::size_t>(f.codeEnd, n)];
  }
}

} // namespace

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

OptStats optimizeWith(Program& p, const OptOptions& opts) {
  OptStats stats;
  // Rewritten code invalidates the verifier's proof until optimize()
  // re-verifies it; the VM refuses to run an unverified kernel.
  for (KernelInfo& k : p.kernels) {
    k.bounds = {};
  }
  p.handlers.clear();
  std::vector<std::uint32_t> costs(p.code.size());
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    costs[i] = instrCycleCost(p.code[i]);
  }

  if (opts.constantFolding || opts.algebraic || opts.deadCode || opts.fuse) {
    {
      const std::vector<bool> lead = computeLeaders(p, nullptr);
      for (const FunctionInfo& f : p.functions) {
        if (opts.constantFolding || opts.algebraic) {
          simFunction(p, f, opts, costs, lead, stats);
        }
        if (opts.algebraic) {
          condNormFunction(p, f, lead, stats);
        }
        if (opts.deadCode) {
          pushPopFunction(p, f, lead);
        }
      }
      compact(p, costs, opts.deadCode, stats);
    }
    if (opts.fuse) {
      // Fuse to a fixpoint, compacting between rounds so earlier fusions
      // (e.g. PushFrameAddr+Load -> LoadFrame) become adjacent to their
      // next partner (LoadFrame+binop -> FrameBin -> FrameBin2). Jump
      // threading and store->load forwarding join the fixpoint because
      // they feed on fusion products (CmpJz heads, StoreFrame/LoadFrame
      // pairs) and their rewrites expose further fusions. Each pass gets
      // fresh leaders: threading adds jump edges the others must see.
      for (int round = 0; round < 12; ++round) {
        bool changed = false;
        {
          const std::vector<bool> lead = computeLeaders(p, nullptr);
          for (const FunctionInfo& f : p.functions) {
            changed = fuseFunction(p, f, costs, lead, stats) || changed;
          }
        }
        {
          const std::vector<bool> lead = computeLeaders(p, nullptr);
          for (const FunctionInfo& f : p.functions) {
            changed = threadFunction(p, f, costs, lead, stats) || changed;
          }
        }
        {
          const std::vector<bool> lead = computeLeaders(p, nullptr);
          for (const FunctionInfo& f : p.functions) {
            changed = forwardFunction(p, f, costs, lead, stats) || changed;
          }
        }
        if (!changed) {
          break;
        }
        compact(p, costs, opts.deadCode, stats);
      }
      if (opts.deadCode) {
        const std::vector<bool> lead = computeLeaders(p, nullptr);
        for (const FunctionInfo& f : p.functions) {
          deadStoreFunction(p, f, stats);
          pushPopFunction(p, f, lead);
        }
        compact(p, costs, opts.deadCode, stats);
      }
    }
  }
  p.cycleCosts = std::move(costs);
  return stats;
}

OptStats optimize(Program& program, OptLevel level) {
  program.optLevel = std::uint8_t(level);
  OptStats stats;
  if (level != OptLevel::O0) {
    stats = optimizeWith(program, OptOptions::forLevel(level));
  }
  verify(program);
  return stats;
}

} // namespace clc
