#include "clc/verify.h"

#include <algorithm>
#include <vector>

#include "clc/builtins.h"

namespace clc {

namespace {

/// What one function needs, proven from its own code: callee bounds are
/// folded in afterwards along the call graph.
struct FunctionProof {
  std::uint32_t operands = 0; // deepest stack of the body itself
  bool hasBarrier = false;
  struct Call {
    std::uint32_t callee = 0;
    std::uint32_t base = 0; // caller depth once the arguments are popped
  };
  std::vector<Call> calls;
};

/// Bounds of a function together with everything it transitively calls.
struct GraphBounds {
  std::uint64_t operands = 0;
  std::uint64_t arenaBytes = 0;
  std::uint32_t callDepth = 0;
  bool hasBarrier = false;
};

class Verifier {
public:
  explicit Verifier(Program& program) : program_(program) {}

  void run() {
    const std::size_t codeSize = program_.code.size();
    std::vector<std::uint32_t>& costs = program_.cycleCosts;
    if (costs.empty()) {
      costs.reserve(codeSize);
      for (const Instr& in : program_.code) {
        costs.push_back(instrCycleCost(in));
      }
    }
    if (costs.size() != codeSize) {
      throw VerifyError("cycle-cost table size mismatch");
    }
    proofs_.reserve(program_.functions.size());
    for (const FunctionInfo& f : program_.functions) {
      checkSignature(f, codeSize);
      proofs_.push_back(walk(f));
    }
    state_.assign(program_.functions.size(), State::Unvisited);
    graph_.resize(program_.functions.size());
    for (std::uint32_t i = 0; i < program_.functions.size(); ++i) {
      bounds(i, 1);
    }
    for (KernelInfo& k : program_.kernels) {
      if (k.functionIndex >= program_.functions.size()) {
        throw VerifyError("kernel '" + k.name +
                          "': function index out of bounds");
      }
      const GraphBounds& g = graph_[k.functionIndex];
      if (g.arenaBytes > kMaxPrivateArena) {
        throw VerifyError("kernel '" + k.name + "' needs " +
                          std::to_string(g.arenaBytes) +
                          " bytes of private memory; the limit is " +
                          std::to_string(kMaxPrivateArena));
      }
      k.bounds.operands = std::uint32_t(g.operands);
      k.bounds.arenaBytes = std::uint32_t(g.arenaBytes);
      k.bounds.callDepth = g.callDepth;
      k.bounds.hasBarrier = g.hasBarrier;
    }
  }

private:
  enum class State : std::uint8_t { Unvisited, Active, Done };

  [[noreturn]] static void fail(const FunctionInfo& f, std::uint32_t pc,
                                const std::string& what) {
    throw VerifyError("function '" + f.name + "' at pc " +
                      std::to_string(pc) + ": " + what);
  }

  static bool validTag(TypeTag tag) { return tag <= kMaxTypeTag; }

  static bool validEmbedded(Op op) {
    return isBinaryArithOp(op) || isCompareOp(op);
  }

  void checkSignature(const FunctionInfo& f, std::size_t codeSize) const {
    const auto fn = [&](const std::string& what) {
      throw VerifyError("function '" + f.name + "': " + what);
    };
    if (f.codeStart >= f.codeEnd || f.codeEnd > codeSize) {
      fn("code range out of bounds");
    }
    if (f.frameSize > kMaxPrivateArena) {
      fn("frame of " + std::to_string(f.frameSize) +
         " bytes exceeds the private memory limit");
    }
    if (f.returnsValue && f.returnsStruct) {
      fn("returns both a value and a struct");
    }
    if (f.returnsStruct && f.frameSize < 8) {
      fn("no frame slot for the struct-return pointer");
    }
    for (const ParamInfo& p : f.params) {
      if (p.kind > ParamKind::Struct || !validTag(p.scalarTag)) {
        fn("malformed parameter '" + p.name + "'");
      }
      // Scalars and pointers are stored as at most one slot.
      const std::uint64_t bytes =
          p.kind == ParamKind::Struct
              ? p.size
              : std::min<std::uint64_t>(p.size == 0 ? 8 : p.size, 8);
      if (std::uint64_t(p.frameOffset) + bytes > f.frameSize) {
        fn("parameter '" + p.name + "' lies outside the frame");
      }
    }
  }

  bool inFrame(const FunctionInfo& f, std::int64_t offset,
               TypeTag tag) const {
    return offset >= 0 &&
           std::uint64_t(offset) + typeTagSize(tag) <= f.frameSize;
  }

  /// Checks one instruction's operands: everything stackEffect() and the
  /// VM read from them must be in range.
  void checkOperands(const FunctionInfo& f, std::uint32_t pc) const {
    const Instr& in = program_.code[pc];
    if (in.op > kMaxOp) {
      fail(f, pc, "unknown opcode");
    }
    if (!validTag(in.tag)) {
      fail(f, pc, "unknown type tag");
    }
    const auto require = [&](bool ok, const char* what) {
      if (!ok) {
        fail(f, pc, std::string("malformed ") + opName(in.op) + ": " + what);
      }
    };
    switch (in.op) {
      case Op::PushConst:
        require(in.a >= 0 && std::size_t(in.a) < program_.constants.size(),
                "constant index out of bounds");
        break;
      case Op::MemCopy:
        require(in.a >= 0, "negative byte count");
        break;
      case Op::Conv:
        require(in.a >= 0 && (in.a >> 16) == 0 &&
                    validTag(TypeTag((in.a >> 8) & 0xff)) &&
                    validTag(TypeTag(in.a & 0xff)),
                "bad type pair");
        break;
      case Op::Call:
        require(in.a >= 0 && std::size_t(in.a) < program_.functions.size(),
                "call target out of bounds");
        break;
      case Op::CallBuiltin:
        require(in.a >= 0 && in.a <= std::int32_t(kMaxBuiltin) &&
                    Builtin(in.a) != Builtin::Barrier,
                "unknown builtin");
        break;
      case Op::RetVal:
        require(f.returnsValue, "function returns no value");
        break;
      case Op::RetStruct:
        require(f.returnsStruct, "function returns no struct");
        require(in.a >= 0, "negative byte count");
        break;
      case Op::LoadFrame:
      case Op::StoreFrame:
        require(inFrame(f, in.a, in.tag), "frame offset out of bounds");
        break;
      case Op::BinConst:
        require(in.a >= 0 && validEmbedded(embeddedOp(in.a)) &&
                    std::size_t(embeddedOperand(in.a)) <
                        program_.constants.size(),
                "bad embedded op or constant");
        break;
      case Op::FrameBin:
        require(in.a >= 0 && validEmbedded(embeddedOp(in.a)) &&
                    inFrame(f, embeddedOperand(in.a), in.tag),
                "bad embedded op or frame offset");
        break;
      case Op::LoadBin:
        require(in.a >= 0 && in.a <= 0xff && validEmbedded(Op(in.a)),
                "bad embedded op");
        break;
      case Op::CmpJz:
      case Op::CmpJnz:
        require(in.a >= 0 && isCompareOp(cmpFromJump(in.a)),
                "bad embedded compare");
        break;
      case Op::FrameBin2:
        require(in.a >= 0 && validEmbedded(frame2Op(in.a)) &&
                    inFrame(f, frame2X(in.a), in.tag) &&
                    inFrame(f, frame2Y(in.a), in.tag),
                "bad embedded op or frame offset");
        break;
      default:
        break;
    }
  }

  /// Abstract interpretation of the stack depth over `f`'s reachable code.
  FunctionProof walk(const FunctionInfo& f) const {
    FunctionProof proof;
    const std::uint32_t start = f.codeStart;
    std::vector<std::int64_t> depthAt(f.codeEnd - start, -1);
    std::vector<std::uint32_t> work;
    const auto reach = [&](std::uint32_t from, std::int64_t target,
                           std::int64_t depth, const char* what) {
      if (target < start || target >= f.codeEnd) {
        fail(f, from, what);
      }
      std::int64_t& known = depthAt[std::size_t(target - start)];
      if (known < 0) {
        known = depth;
        work.push_back(std::uint32_t(target));
      } else if (known != depth) {
        fail(f, std::uint32_t(target),
             "operand stack depth differs between paths (" +
                 std::to_string(known) + " vs " + std::to_string(depth) +
                 ")");
      }
    };
    reach(start, start, 0, "empty function");
    while (!work.empty()) {
      const std::uint32_t pc = work.back();
      work.pop_back();
      const Instr& in = program_.code[pc];
      const std::int64_t depth = depthAt[pc - start];
      checkOperands(f, pc);
      const StackEffect e = stackEffect(program_, in);
      if (depth < e.pops) {
        fail(f, pc, std::string("operand stack underflow in ") +
                        opName(in.op));
      }
      const std::int64_t after = depth - e.pops + e.pushes;
      proof.operands = std::uint32_t(
          std::max<std::int64_t>({proof.operands, depth, after}));
      switch (in.op) {
        case Op::Ret:
        case Op::RetVal:
        case Op::RetStruct: {
          if (in.op == Op::Ret && (f.returnsValue || f.returnsStruct)) {
            fail(f, pc, "function must return a value");
          }
          const std::int64_t want = in.op == Op::Ret ? 0 : 1;
          if (depth != want) {
            fail(f, pc, "returns with " + std::to_string(depth) +
                            " operand(s) on the stack; expected " +
                            std::to_string(want));
          }
          break;
        }
        case Op::Call:
          proof.calls.push_back({std::uint32_t(in.a),
                                 std::uint32_t(depth - e.pops)});
          break;
        case Op::Barrier:
          proof.hasBarrier = true;
          break;
        default:
          break;
      }
      if (hasBranchTarget(in.op)) {
        reach(pc, branchTarget(in), after,
              "branch target outside the function");
      }
      if (fallsThrough(in.op)) {
        reach(pc, pc + 1, after, "control falls off the end of the function");
      }
    }
    return proof;
  }

  /// Folds callee bounds into function `index`, depth-first; `depth` is the
  /// frame count of the chain that reached it.
  const GraphBounds& bounds(std::uint32_t index, std::uint32_t depth) {
    const FunctionInfo& f = program_.functions[index];
    if (state_[index] == State::Done) {
      return graph_[index];
    }
    if (state_[index] == State::Active) {
      throw VerifyError("call graph cycle through function '" + f.name + "'");
    }
    if (depth > kMaxCallDepth) {
      throw VerifyError("call chain through function '" + f.name +
                        "' is deeper than " + std::to_string(kMaxCallDepth) +
                        " frames");
    }
    state_[index] = State::Active;
    const FunctionProof& proof = proofs_[index];
    GraphBounds g;
    g.operands = proof.operands;
    g.arenaBytes = f.frameSize;
    g.callDepth = 1;
    g.hasBarrier = proof.hasBarrier;
    // Callee frames start at the next 8-byte boundary after this frame.
    const std::uint64_t calleeBase = (std::uint64_t(f.frameSize) + 7) / 8 * 8;
    for (const FunctionProof::Call& call : proof.calls) {
      const GraphBounds& c = bounds(call.callee, depth + 1);
      g.operands = std::max(g.operands, call.base + c.operands);
      g.arenaBytes = std::max(g.arenaBytes, calleeBase + c.arenaBytes);
      g.callDepth = std::max(g.callDepth, c.callDepth + 1);
      g.hasBarrier = g.hasBarrier || c.hasBarrier;
    }
    // The check above bounds the recursion; this one also covers chains
    // that continue through callees finished from an earlier root.
    if (depth - 1 + g.callDepth > kMaxCallDepth) {
      throw VerifyError("call chain through function '" + f.name +
                        "' is deeper than " + std::to_string(kMaxCallDepth) +
                        " frames");
    }
    graph_[index] = g;
    state_[index] = State::Done;
    return graph_[index];
  }

  Program& program_;
  std::vector<FunctionProof> proofs_;
  std::vector<State> state_;
  std::vector<GraphBounds> graph_;
};

} // namespace

void verify(Program& program) { Verifier(program).run(); }

StackEffect stackEffect(const Program& program, const Instr& in) {
  if (in.op == Op::Call) {
    COMMON_EXPECTS(in.a >= 0 && std::size_t(in.a) < program.functions.size(),
                   "stackEffect of a call with an out-of-range target");
    const FunctionInfo& callee = program.functions[std::size_t(in.a)];
    return {std::uint32_t(callee.params.size()) +
                (callee.returnsStruct ? 1u : 0u),
            callee.returnsValue ? 1u : 0u};
  }
  if (in.op == Op::CallBuiltin) {
    return {builtinArity(Builtin(in.a)), 1};
  }
  const OpInfo& row = opInfo(in.op);
  return {row.pops, row.pushes};
}

bool endsStraightLine(const Instr& in) {
  return opInfo(in.op).flow != Flow::Next ||
         (in.op == Op::CallBuiltin && Builtin(in.a) == Builtin::Barrier);
}

} // namespace clc
