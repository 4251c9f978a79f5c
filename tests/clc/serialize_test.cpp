#include <gtest/gtest.h>

#include "clc_test_util.h"
#include "clc/diag.h"
#include "clc/serialize.h"
#include "clc/verify.h"
#include "common/byte_stream.h"
#include "common/stopwatch.h"

using namespace clc_test;

namespace {

using clc::Instr;
using clc::Op;
using clc::TypeTag;

Instr I(Op op, TypeTag tag = TypeTag::I32, std::int32_t a = 0) {
  return Instr{op, tag, a};
}

clc::FunctionInfo function(const std::string& name, std::uint32_t start,
                           std::uint32_t end, std::uint32_t frameSize = 8) {
  clc::FunctionInfo f;
  f.name = name;
  f.codeStart = start;
  f.codeEnd = end;
  f.frameSize = frameSize;
  return f;
}

/// A program whose kernel "k" is function 0, spanning all of `code`
/// unless `functions` lays the code out differently.
clc::Program handWritten(std::vector<Instr> code,
                         std::vector<clc::FunctionInfo> functions = {}) {
  clc::Program p;
  p.code = std::move(code);
  p.constants = {7};
  if (functions.empty()) {
    functions.push_back(function("k", 0, std::uint32_t(p.code.size())));
  }
  functions[0].isKernel = true;
  p.functions = std::move(functions);
  clc::KernelInfo k;
  k.name = "k";
  p.kernels.push_back(k);
  return p;
}

/// Serializes `p` as-is and expects the loader to reject it.
void expectRejected(const clc::Program& p) {
  const std::vector<std::uint8_t> bytes = clc::serializeProgram(p);
  EXPECT_THROW(clc::deserializeProgram(bytes), common::DeserializeError);
}

const char* kSource = R"(
  typedef struct { float x; float y; } P;
  float dot2(P a, P b) { return a.x * b.x + a.y * b.y; }
  __kernel void k(__global P* ps, __global float* out, __local float* tmp) {
    size_t i = get_global_id(0);
    tmp[get_local_id(0)] = dot2(ps[i], ps[i]);
    barrier(CLK_LOCAL_MEM_FENCE);
    out[i] = tmp[get_local_id(0)];
  }
)";

TEST(Serialize, RoundTripPreservesStructure) {
  const auto program = clc::compile(kSource);
  const auto bytes = clc::serializeProgram(program);
  const auto restored = clc::deserializeProgram(bytes);

  EXPECT_EQ(restored.sourceHash, program.sourceHash);
  ASSERT_EQ(restored.code.size(), program.code.size());
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    EXPECT_EQ(restored.code[i].op, program.code[i].op) << i;
    EXPECT_EQ(restored.code[i].tag, program.code[i].tag) << i;
    EXPECT_EQ(restored.code[i].a, program.code[i].a) << i;
  }
  EXPECT_EQ(restored.constants, program.constants);
  ASSERT_EQ(restored.functions.size(), program.functions.size());
  for (std::size_t i = 0; i < program.functions.size(); ++i) {
    const auto& a = program.functions[i];
    const auto& b = restored.functions[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.frameSize, b.frameSize);
    EXPECT_EQ(a.params.size(), b.params.size());
    EXPECT_EQ(a.returnsStruct, b.returnsStruct);
  }
  ASSERT_EQ(restored.kernels.size(), 1u);
  EXPECT_EQ(restored.kernels[0].name, "k");
  EXPECT_EQ(restored.kernels[0].staticLocalSize,
            program.kernels[0].staticLocalSize);
}

TEST(Serialize, DeserializedProgramExecutesIdentically) {
  const auto program = clc::compile(kSource);
  const auto restored =
      clc::deserializeProgram(clc::serializeProgram(program));

  struct P {
    float x, y;
  };
  std::vector<P> ps = {{1, 2}, {3, 4}, {5, 6}, {0, -1}};
  std::vector<float> out1(4), out2(4);

  for (auto* out : {&out1, &out2}) {
    Buffers bufs;
    auto a = bufs.add(ps);
    auto b = bufs.add(*out);
    run1D(out == &out1 ? program : restored, "k", 4, 2,
          {a, b, localArg(2 * sizeof(float))}, bufs);
  }
  EXPECT_EQ(out1, out2);
  EXPECT_FLOAT_EQ(out1[0], 5.0f);
  EXPECT_FLOAT_EQ(out1[1], 25.0f);
}

TEST(Serialize, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = {'n', 'o', 'p', 'e', 0, 0, 0, 0};
  EXPECT_THROW(clc::deserializeProgram(bytes), common::DeserializeError);
}

TEST(Serialize, RejectsVersionMismatch) {
  const auto program = clc::compile("__kernel void k() {}");
  auto bytes = clc::serializeProgram(program);
  bytes[4] ^= 0xff; // corrupt the version field
  EXPECT_THROW(clc::deserializeProgram(bytes), common::DeserializeError);
}

TEST(Serialize, RejectsTruncatedInput) {
  const auto program = clc::compile(kSource);
  auto bytes = clc::serializeProgram(program);
  for (const std::size_t cut : {bytes.size() / 2, bytes.size() - 1,
                                std::size_t(9)}) {
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + long(cut));
    EXPECT_THROW(clc::deserializeProgram(truncated),
                 common::DeserializeError)
        << "cut at " << cut;
  }
}

TEST(Serialize, HugeCodeLengthIsATypedError) {
  // The count would wrap a byte-size check and overflow reserve().
  common::ByteWriter w;
  w.write<std::uint32_t>(0x434c4342); // "CLCB"
  w.write<std::uint32_t>(clc::Program::kSerialVersion);
  w.writeString("");
  w.write<std::uint64_t>(1ULL << 62);
  EXPECT_THROW(clc::deserializeProgram(w.bytes()), common::DeserializeError);
}

TEST(Serialize, RejectsOutOfRangeIndices) {
  const auto program = clc::compile("__kernel void k() {}");
  auto bytes = clc::serializeProgram(program);
  // Find and corrupt the kernel's functionIndex (last 8 bytes hold the
  // function index and staticLocalSize).
  const std::size_t idxPos = bytes.size() - 8;
  bytes[idxPos] = 0xff;
  EXPECT_THROW(clc::deserializeProgram(bytes), common::DeserializeError);
}

// --- malformed bytecode: every case is a typed load error -----------------

TEST(SerializeMalformed, AcceptsTheWellFormedBaseline) {
  const auto bytes = clc::serializeProgram(
      handWritten({I(Op::PushConst, TypeTag::I32, 0), I(Op::Pop), I(Op::Ret)}));
  const clc::Program p = clc::deserializeProgram(bytes);
  EXPECT_EQ(p.kernels[0].bounds.operands, 1u);
  EXPECT_EQ(p.kernels[0].bounds.callDepth, 1u);
}

TEST(SerializeMalformed, StackUnderflowIsRejected) {
  expectRejected(handWritten({I(Op::Pop), I(Op::Ret)}));
  expectRejected(handWritten({I(Op::PushConst, TypeTag::I32, 0),
                              I(Op::Add, TypeTag::I32), I(Op::Ret)}));
}

TEST(SerializeMalformed, JumpToCodeSizeIsRejected) {
  // One past the last instruction is outside every function.
  expectRejected(handWritten({I(Op::Jmp, TypeTag::I32, 2), I(Op::Ret)}));
  expectRejected(handWritten(
      {I(Op::PushConst, TypeTag::I32, 0), I(Op::PushConst, TypeTag::I32, 0),
       I(Op::CmpJz, TypeTag::I32, clc::encodeCmpJump(Op::CmpEq, 4)),
       I(Op::Ret)}));
}

TEST(SerializeMalformed, BranchIntoAnotherFunctionIsRejected) {
  expectRejected(handWritten({I(Op::Jmp, TypeTag::I32, 3), I(Op::Ret),
                              I(Op::Nop), I(Op::Ret)},
                             {function("k", 0, 2), function("f", 2, 4)}));
}

TEST(SerializeMalformed, FallThroughPastCodeEndIsRejected) {
  expectRejected(handWritten({I(Op::Nop), I(Op::Ret), I(Op::Nop)},
                             {function("k", 2, 3), function("f", 0, 2)}));
  // A conditional branch as the last instruction falls through, too.
  expectRejected(handWritten({I(Op::PushConst, TypeTag::I32, 0),
                              I(Op::Jz, TypeTag::I32, 0)}));
}

TEST(SerializeMalformed, CallGraphCycleIsRejected) {
  expectRejected(handWritten({I(Op::Call, TypeTag::I32, 1), I(Op::Ret),
                              I(Op::Call, TypeTag::I32, 0), I(Op::Ret)},
                             {function("k", 0, 2), function("f", 2, 4)}));
}

TEST(SerializeMalformed, HugeKernelFrameIsRejected) {
  clc::Program p = handWritten({I(Op::Ret)});
  p.functions[0].frameSize = 256u << 20;
  expectRejected(p);
}

TEST(SerializeMalformed, UnequalDepthsAtAJoinAreRejected) {
  // The branch reaches pc 4 with one slot, the fall-through with two.
  expectRejected(handWritten({I(Op::PushConst, TypeTag::I32, 0),
                              I(Op::PushConst, TypeTag::I32, 0),
                              I(Op::Jz, TypeTag::I32, 4),
                              I(Op::PushConst, TypeTag::I32, 0),
                              I(Op::Pop), I(Op::Pop), I(Op::Ret)}));
}

TEST(SerializeMalformed, ReturnWithLeftoverOperandsIsRejected) {
  expectRejected(handWritten({I(Op::PushConst, TypeTag::I32, 0), I(Op::Ret)}));
}

TEST(SerializeMalformed, BadOperandsAreRejected) {
  expectRejected(handWritten({I(Op::PushConst, TypeTag::I32, 5), I(Op::Pop),
                              I(Op::Ret)}));
  expectRejected(handWritten({I(Op::PushConst, TypeTag(42), 0), I(Op::Pop),
                              I(Op::Ret)}));
  expectRejected(handWritten({I(Op::Call, TypeTag::I32, 9), I(Op::Ret)}));
  expectRejected(handWritten({I(Op::CallBuiltin, TypeTag::I32, 7000),
                              I(Op::Pop), I(Op::Ret)}));
}

// --- what the verifier proves about compiled code ---------------------------

TEST(Verify, RecordsKernelBoundsAlongTheCallGraph) {
  const auto program = clc::compile(kSource);
  const clc::KernelBounds& b = program.kernels[0].bounds;
  EXPECT_EQ(b.callDepth, 2u) << "k calls dot2";
  EXPECT_TRUE(b.hasBarrier);
  EXPECT_GT(b.operands, 0u);
  const clc::FunctionInfo* k = program.findFunction("k");
  const clc::FunctionInfo* dot2 = program.findFunction("dot2");
  EXPECT_EQ(b.arenaBytes, (k->frameSize + 7) / 8 * 8 + dot2->frameSize);
  // Deserialization recomputes the same proof.
  const auto restored =
      clc::deserializeProgram(clc::serializeProgram(program));
  EXPECT_EQ(restored.kernels[0].bounds.operands, b.operands);
  EXPECT_EQ(restored.kernels[0].bounds.arenaBytes, b.arenaBytes);
}

TEST(Verify, OversizedPrivateArrayIsACompileError) {
  EXPECT_THROW(clc::compile("__kernel void k(__global float* d) {"
                            "  float big[300000]; big[0] = 1.0f;"
                            "  d[0] = big[0]; }"),
               clc::CompileError);
}

TEST(Verify, UnverifiedProgramDoesNotRun) {
  clc::Program program = clc::compile("__kernel void k() {}");
  program.kernels[0].bounds = {};
  Buffers bufs;
  EXPECT_THROW(run1D(program, "k", 1, 1, {}, bufs), common::InvalidArgument);
}

TEST(Serialize, LoadIsFasterThanCompile) {
  // The property behind the paper's kernel cache claim: deserializing a
  // program must be much cheaper than compiling it from source. We assert
  // a conservative 2x here to keep the test robust on loaded machines;
  // the bench measures the real factor.
  std::string bigSource;
  for (int i = 0; i < 40; ++i) {
    bigSource += "float helper" + std::to_string(i) +
                 "(float x) { return x * " + std::to_string(i + 1) +
                 ".0f + sqrt(x); }\n";
  }
  bigSource += "__kernel void k(__global float* out) { float a = 1.0f;\n";
  for (int i = 0; i < 40; ++i) {
    bigSource += "a += helper" + std::to_string(i) + "(a);\n";
  }
  bigSource += "out[get_global_id(0)] = a; }\n";

  // Min-of-N per side, interleaved: the fastest run of each is the one
  // least disturbed by other processes, so the ratio is stable under load.
  double compileTime = 1e9;
  double loadTime = 1e9;
  clc::Program program = clc::compile(bigSource);
  const auto bytes = clc::serializeProgram(program);
  for (int trial = 0; trial < 9; ++trial) {
    common::Stopwatch compileTimer;
    program = clc::compile(bigSource);
    compileTime = std::min(compileTime, compileTimer.elapsedSeconds());

    common::Stopwatch loadTimer;
    const auto restored = clc::deserializeProgram(bytes);
    loadTime = std::min(loadTime, loadTimer.elapsedSeconds());
    ASSERT_EQ(restored.functions.size(), program.functions.size());
  }
  EXPECT_LT(loadTime * 2, compileTime)
      << "compile=" << compileTime << "s load=" << loadTime << "s";
}

} // namespace
