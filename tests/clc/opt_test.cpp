// Tests for the bytecode optimizer (clc/opt.h).
//
// Two layers:
//  * differential tests: every corpus kernel (hand-written plus the real
//    mandelbrot/osem device code) is compiled once per optimization level
//    and launched on identical inputs; output buffers must be bit-identical
//    and the simulated-time LaunchStats (total cycles, per-group sum/max,
//    memory traffic) must be invariant — only the dynamic instruction
//    count may shrink.
//  * per-pass unit tests on hand-written bytecode, pass-selected through
//    OptOptions, asserting the exact rewrite and that the cycle-cost table
//    still sums to the cost of the original sequence.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "clc/codegen.h"
#include "clc/dispatch.h"
#include "clc/opt.h"
#include "clc/serialize.h"
#include "clc/vm.h"
#include "clc_test_util.h"
#include "common/byte_stream.h"

namespace {

using clc::Instr;
using clc::Op;
using clc::TypeTag;

std::string readRepoFile(const std::string& relative) {
  const std::string path = std::string(SKELCL_REPRO_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- differential harness ---------------------------------------------------

/// One concrete kernel launch; buffers are deep-copied per run so every
/// optimization level starts from identical inputs.
struct Launch {
  std::string kernel;
  clc::NDRange range;
  std::vector<clc::KernelArgValue> args;
  std::vector<std::vector<std::uint8_t>> buffers;

  void shape1D(std::size_t global, std::size_t local) {
    range.dims = 1;
    range.globalSize[0] = global;
    range.localSize[0] = local;
  }
  void shape2D(std::size_t gx, std::size_t gy, std::size_t lx,
               std::size_t ly) {
    range.dims = 2;
    range.globalSize[0] = gx;
    range.globalSize[1] = gy;
    range.localSize[0] = lx;
    range.localSize[1] = ly;
  }

  template <typename T>
  void addBuffer(const std::vector<T>& data) {
    std::vector<std::uint8_t> bytes(data.size() * sizeof(T));
    std::memcpy(bytes.data(), data.data(), bytes.size());
    clc::KernelArgValue arg;
    arg.kind = clc::KernelArgValue::Kind::Buffer;
    arg.segmentIndex = std::uint32_t(buffers.size());
    buffers.push_back(std::move(bytes));
    args.push_back(std::move(arg));
  }
  template <typename T>
  void addScalar(T value) {
    args.push_back(clc_test::scalarArg(value));
  }
  template <typename T>
  void addStruct(const T& value) {
    args.push_back(clc_test::structArg(value));
  }
  void addLocal(std::uint32_t bytes) {
    args.push_back(clc_test::localArg(bytes));
  }
};

struct RunResult {
  std::vector<std::vector<std::uint8_t>> buffers;
  clc::LaunchStats stats;
};

RunResult runLaunch(const clc::Program& program, const Launch& launch) {
  RunResult r;
  r.buffers = launch.buffers;
  std::vector<clc::Segment> segments;
  for (auto& b : r.buffers) {
    segments.push_back(clc::Segment{b.data(), b.size()});
  }
  r.stats = clc::executeKernel(program, launch.kernel, launch.range,
                               launch.args, segments, nullptr);
  return r;
}

/// The timing-invariance contract: everything the ocl timing model reads
/// must match; only the host-side dispatch count may differ.
void expectTimingInvariant(const clc::LaunchStats& base,
                           const clc::LaunchStats& opt) {
  EXPECT_EQ(opt.totalCycles, base.totalCycles);
  EXPECT_EQ(opt.globalBytesRead, base.globalBytesRead);
  EXPECT_EQ(opt.globalBytesWritten, base.globalBytesWritten);
  EXPECT_EQ(opt.atomicOps, base.atomicOps);
  EXPECT_EQ(opt.barrierWaits, base.barrierWaits);
  ASSERT_EQ(opt.groups.size(), base.groups.size());
  for (std::size_t g = 0; g < base.groups.size(); ++g) {
    EXPECT_EQ(opt.groups[g].sumCycles, base.groups[g].sumCycles) << "group " << g;
    EXPECT_EQ(opt.groups[g].maxCycles, base.groups[g].maxCycles) << "group " << g;
  }
}

/// Absolute O0 simulated time of one launch. The O0-vs-O2 comparison only
/// sees relative drift; these pins catch a changed per-instruction or
/// per-builtin cycle cost, which would move every virtual time.
struct PinnedO0 {
  std::uint64_t totalCycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t group0MaxCycles = 0;
};

/// Compiles `source` at O0 and at O2, runs `launch` on each, and checks
/// bit-identical buffers + invariant simulated time, and the O0 stats
/// against `pin` when one is given.
void expectDifferential(const std::string& source, const Launch& launch,
                        const PinnedO0* pin = nullptr) {
  clc::Program base = clc::compile(source);
  clc::optimize(base, clc::OptLevel::O0);
  const RunResult o0 = runLaunch(base, launch);
  if (pin != nullptr) {
    EXPECT_EQ(o0.stats.totalCycles, pin->totalCycles);
    EXPECT_EQ(o0.stats.instructions, pin->instructions);
    ASSERT_FALSE(o0.stats.groups.empty());
    EXPECT_EQ(o0.stats.groups[0].maxCycles, pin->group0MaxCycles);
  }

  clc::Program p = clc::compile(source);
  clc::optimize(p, clc::OptLevel::O2);
  EXPECT_EQ(p.optLevel, std::uint8_t(clc::OptLevel::O2));
  const RunResult r = runLaunch(p, launch);
  ASSERT_EQ(r.buffers.size(), o0.buffers.size());
  for (std::size_t i = 0; i < o0.buffers.size(); ++i) {
    EXPECT_EQ(r.buffers[i], o0.buffers[i]) << "buffer " << i;
  }
  expectTimingInvariant(o0.stats, r.stats);
  // The whole point: fewer dispatched instructions, same simulated time.
  EXPECT_LE(r.stats.instructions, o0.stats.instructions);
}

// --- differential corpus: hand-written kernels ------------------------------

TEST(OptDifferential, SaxpyLoopWithCompoundAssign) {
  const std::string source = R"(
__kernel void saxpy(__global float* y, __global const float* x,
                    float a, int n) {
  int i = (int)get_global_id(0);
  if (i >= n) return;
  float acc = 0.0f;
  for (int k = 0; k <= i; ++k) {
    acc += a * x[k];
  }
  y[i] = acc + y[i];
}
)";
  Launch l;
  l.kernel = "saxpy";
  l.shape1D(16, 4);
  std::vector<float> y(16), x(16);
  for (int i = 0; i < 16; ++i) {
    y[i] = 0.25f * float(i) - 1.0f;
    x[i] = float(i * i) * 0.125f;
  }
  l.addBuffer(y);
  l.addBuffer(x);
  l.addScalar(1.5f);
  l.addScalar(std::int32_t(13));
  expectDifferential(source, l);
}

TEST(OptDifferential, UnsignedDivRemByPowerOfTwo) {
  const std::string source = R"(
__kernel void intops(__global uint* out, __global const uint* in, uint n) {
  uint i = (uint)get_global_id(0);
  if (i < n) {
    uint v = in[i];
    uint a = v / 8u;        /* -> shr  */
    uint b = v % 16u;       /* -> and  */
    uint c = v * 4u;        /* -> shl  */
    int s = (int)v - 1000;
    int d = s / 4;          /* signed: must NOT be strength-reduced */
    int e = s % 8;
    out[i] = a + b + c + (v / 3u) + (uint)(d + e);
  }
}
)";
  Launch l;
  l.kernel = "intops";
  l.shape1D(32, 8);
  std::vector<std::uint32_t> out(32, 0), in(32);
  for (std::uint32_t i = 0; i < 32; ++i) {
    in[i] = i * 977u + 31u;
  }
  l.addBuffer(out);
  l.addBuffer(in);
  l.addScalar(std::uint32_t(30));
  expectDifferential(source, l);
}

TEST(OptDifferential, TernaryAndShortCircuitLogic) {
  const std::string source = R"(
__kernel void logic(__global int* out, __global const int* in, int n) {
  int i = (int)get_global_id(0);
  if (i >= n) return;
  int v = in[i];
  int r = (v > 10 && v < 100) ? v * 2
                              : ((v < 0 || v == 5) ? -v : v + 1);
  out[i] = r;
}
)";
  Launch l;
  l.kernel = "logic";
  l.shape1D(16, 4);
  std::vector<std::int32_t> out(16, -7), in = {5,  -3, 42, 150, 0,  11, 99, 100,
                                               -1, 10, 7,  1000, 5, 64, -64, 2};
  l.addBuffer(out);
  l.addBuffer(in);
  l.addScalar(std::int32_t(16));
  expectDifferential(source, l);
}

TEST(OptDifferential, PointerArithmeticWalk) {
  const std::string source = R"(
__kernel void walk(__global float* out, __global const float* in, int n) {
  int i = (int)get_global_id(0);
  __global const float* p = in + i;
  float s = 0.0f;
  for (int k = i; k < n; k += 2) {
    s += *p;
    p += 2;
  }
  out[i] = s;
}
)";
  Launch l;
  l.kernel = "walk";
  l.shape1D(8, 4);
  std::vector<float> out(8, 0.0f), in(16);
  for (int i = 0; i < 16; ++i) {
    in[i] = 1.0f / float(i + 1);
  }
  l.addBuffer(out);
  l.addBuffer(in);
  l.addScalar(std::int32_t(16));
  expectDifferential(source, l);
}

TEST(OptDifferential, ConstantExpressionsAndKnownBranches) {
  const std::string source = R"(
__kernel void consts(__global int* out) {
  int i = (int)get_global_id(0);
  int a = 3 * 7 + (1 << 4);
  if (2 > 1) {
    a += 5;
  } else {
    a -= 100;
  }
  int b = (12 / 4) * (9 % 5);
  out[i] = a + b + i;
}
)";
  Launch l;
  l.kernel = "consts";
  l.shape1D(8, 8);
  l.addBuffer(std::vector<std::int32_t>(8, 0));
  expectDifferential(source, l);
}

TEST(OptDifferential, ConversionsAndMathBuiltins) {
  const std::string source = R"(
__kernel void convmath(__global float* out, __global const float* in, int n) {
  int i = (int)get_global_id(0);
  if (i < n) {
    float v = in[i];
    float w = sqrt(fabs(v)) + (float)(i % 4) * 0.5f;
    out[i] = fmin(w, 100.0f) + (float)((uint)i / 2u);
  }
}
)";
  Launch l;
  l.kernel = "convmath";
  l.shape1D(16, 4);
  std::vector<float> out(16, 0.0f), in(16);
  for (int i = 0; i < 16; ++i) {
    in[i] = (i % 2 ? -1.0f : 1.0f) * float(i) * 3.25f;
  }
  l.addBuffer(out);
  l.addBuffer(in);
  l.addScalar(std::int32_t(15));
  expectDifferential(source, l);
}

TEST(OptDifferential, AtomicHistogram) {
  const std::string source = R"(
__kernel void hist(__global int* bins, __global const int* in, int n) {
  int i = (int)get_global_id(0);
  if (i < n) {
    atomic_add(&bins[in[i] & 7], 1);
  }
}
)";
  Launch l;
  l.kernel = "hist";
  l.shape1D(64, 8);
  std::vector<std::int32_t> bins(8, 0), in(64);
  for (int i = 0; i < 64; ++i) {
    in[i] = i * 31 + 7;
  }
  l.addBuffer(bins);
  l.addBuffer(in);
  l.addScalar(std::int32_t(60));
  expectDifferential(source, l);
}

TEST(OptDifferential, BarrierTreeReduction) {
  const std::string source = R"(
__kernel void reduce(__global float* out, __global const float* in,
                     __local float* tmp) {
  int lid = (int)get_local_id(0);
  int gid = (int)get_global_id(0);
  int lsz = (int)get_local_size(0);
  tmp[lid] = in[gid];
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int s = lsz / 2; s > 0; s /= 2) {
    if (lid < s) {
      tmp[lid] = tmp[lid] + tmp[lid + s];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (lid == 0) {
    out[gid / lsz] = tmp[0];
  }
}
)";
  Launch l;
  l.kernel = "reduce";
  l.shape1D(32, 8);
  std::vector<float> out(4, 0.0f), in(32);
  for (int i = 0; i < 32; ++i) {
    in[i] = float(i) * 0.75f - 4.0f;
  }
  l.addBuffer(out);
  l.addBuffer(in);
  l.addLocal(8 * sizeof(float));
  expectDifferential(source, l);
}

// --- differential corpus: the real example kernels --------------------------

TEST(OptDifferential, MandelbrotKernel) {
  const std::string source =
      readRepoFile("src/mandelbrot/kernels/mandelbrot_opencl.cl");
  ASSERT_FALSE(source.empty());
  const int width = 16;
  const int height = 8;
  Launch l;
  l.kernel = "mandelbrot";
  l.shape2D(std::size_t(width), std::size_t(height), 4, 4);
  l.addBuffer(std::vector<std::int32_t>(std::size_t(width) * height, -1));
  l.addScalar(std::int32_t(width));
  l.addScalar(std::int32_t(height));
  l.addScalar(-2.0f);
  l.addScalar(-1.0f);
  l.addScalar(3.0f / float(width));
  l.addScalar(2.0f / float(height));
  l.addScalar(std::int32_t(64));
  const PinnedO0 pin{274382, 211044, 582};
  expectDifferential(source, l, &pin);

  // The headline claim: the hot loop really got shorter at O2.
  clc::Program o0 = clc::compile(source);
  clc::optimize(o0, clc::OptLevel::O0);
  clc::Program o2 = clc::compile(source);
  clc::optimize(o2, clc::OptLevel::O2);
  const clc::LaunchStats s0 = runLaunch(o0, l).stats;
  const clc::LaunchStats s2 = runLaunch(o2, l).stats;
  EXPECT_LT(s2.instructions, s0.instructions);
}

TEST(OptDifferential, MandelbrotUserFunctionLoopRunsOnQuickenedHandlers) {
  // perfbench's mandelbrot spends nearly all its time in this loop. Every
  // instruction of it must resolve to a quickened handler, or to the
  // generic handler of an opcode that decodes nothing (jumps, pushes): a
  // new optimizer form there would otherwise fall back silently.
  const std::string source =
      "typedef struct { float re; float im; } PixelPos;\n" +
      readRepoFile("src/mandelbrot/kernels/mandelbrot_skelcl.cl");
  clc::Program p = clc::compile(source);
  clc::optimize(p, clc::OptLevel::O2);
  const clc::FunctionInfo* f = p.findFunction("mandelbrot");
  ASSERT_NE(f, nullptr);
  // The loop runs from the target of the function's back edge to it.
  std::uint32_t head = 0;
  std::uint32_t backEdge = 0;
  for (std::uint32_t pc = f->codeStart; pc < f->codeEnd; ++pc) {
    const Instr& in = p.code[pc];
    if (clc::hasBranchTarget(in.op) &&
        std::uint32_t(clc::branchTarget(in)) <= pc) {
      head = std::uint32_t(clc::branchTarget(in));
      backEdge = pc;
    }
  }
  ASSERT_GT(backEdge, head) << clc::disassemble(p);
  std::size_t quickened = 0;
  for (std::uint32_t pc = head; pc <= backEdge; ++pc) {
    const clc::HandlerKind kind = clc::handlerKind(p.handlers[pc]);
    EXPECT_NE(kind, clc::HandlerKind::Generic)
        << "pc " << pc << "\n" << clc::disassemble(p);
    quickened += kind == clc::HandlerKind::Quickened ? 1 : 0;
  }
  // The loop's float and int arithmetic, compares, frame loads and stores.
  EXPECT_GE(quickened, 20u) << clc::disassemble(p);
}

TEST(OptDifferential, OsemUpdateAndAddImages) {
  const std::string source = readRepoFile("src/osem/kernels/osem_opencl.cl");
  ASSERT_FALSE(source.empty());
  std::vector<float> f(64), c(64);
  for (int i = 0; i < 64; ++i) {
    f[i] = 0.5f + 0.01f * float(i);
    c[i] = (i % 5 == 0) ? 0.0f : 1.0f + 0.125f * float(i % 7);
  }
  {
    Launch l;
    l.kernel = "update_image";
    l.shape1D(32, 8);
    l.addBuffer(f);
    l.addBuffer(c);
    l.addScalar(std::uint32_t(16));
    l.addScalar(std::uint32_t(32));
    const PinnedO0 pin{3442, 1912, 119};
    expectDifferential(source, l, &pin);
  }
  {
    Launch l;
    l.kernel = "add_images";
    l.shape1D(32, 8);
    l.addBuffer(f);                  // dst
    l.addScalar(std::uint32_t(8));   // offset
    l.addBuffer(c);                  // src
    l.addScalar(std::uint32_t(24));  // n
    const PinnedO0 pin{2408, 1344, 93};
    expectDifferential(source, l, &pin);
  }
}

TEST(OptDifferential, OsemComputeErrorImage) {
  const std::string source = readRepoFile("src/osem/kernels/osem_opencl.cl");
  ASSERT_FALSE(source.empty());
  struct Event {
    float x1, y1, z1, x2, y2, z2;
  };
  struct OsemDims {
    std::int32_t nx, ny, nz;
    float voxelSize;
  };
  const OsemDims dims{4, 4, 4, 1.0f};
  std::vector<Event> events;
  for (int i = 0; i < 8; ++i) {
    const float t = float(i) * 0.37f;
    events.push_back(Event{-2.0f + 0.3f * t, -2.0f, 0.2f * t,
                           1.9f, 1.7f - 0.2f * t, -0.3f * t});
  }
  std::vector<float> f(64, 1.0f), c(64, 0.0f);
  for (int i = 0; i < 64; ++i) {
    f[i] = 0.75f + 0.02f * float(i % 9);
  }
  Launch l;
  l.kernel = "compute_error_image";
  l.shape1D(4, 2);
  l.addBuffer(events);
  l.addScalar(std::uint32_t(events.size()));
  l.addBuffer(f);
  l.addBuffer(c);
  l.addStruct(dims);
  const PinnedO0 pin{44209, 29466, 11236};
  expectDifferential(source, l, &pin);
}

// --- per-pass unit tests on hand-written bytecode ---------------------------

Instr I(Op op, TypeTag tag = TypeTag::I32, std::int32_t a = 0) {
  return Instr{op, tag, a};
}

/// Wraps straight-line code into a single-kernel program.
clc::Program makeProgram(std::vector<Instr> code,
                         std::vector<std::uint64_t> constants,
                         std::uint32_t frameSize = 64) {
  clc::Program p;
  p.code = std::move(code);
  p.constants = std::move(constants);
  clc::FunctionInfo f;
  f.name = "k";
  f.codeEnd = std::uint32_t(p.code.size());
  f.frameSize = frameSize;
  f.isKernel = true;
  p.functions.push_back(std::move(f));
  clc::KernelInfo k;
  k.name = "k";
  p.kernels.push_back(std::move(k));
  return p;
}

std::uint64_t derivedCostSum(const clc::Program& p) {
  std::uint64_t sum = 0;
  for (const Instr& in : p.code) {
    sum += clc::instrCycleCost(in);
  }
  return sum;
}

std::uint64_t tableCostSum(const clc::Program& p) {
  std::uint64_t sum = 0;
  for (const std::uint32_t c : p.cycleCosts) {
    sum += c;
  }
  return sum;
}

clc::OptOptions only(bool folding, bool algebraic, bool deadCode, bool fuse) {
  clc::OptOptions o;
  o.constantFolding = folding;
  o.algebraic = algebraic;
  o.deadCode = deadCode;
  o.fuse = fuse;
  return o;
}

TEST(OptPass, ConstantFoldAdd) {
  clc::Program p = makeProgram({I(Op::PushConst, TypeTag::I32, 0),
                                I(Op::PushConst, TypeTag::I32, 1),
                                I(Op::Add, TypeTag::I32),
                                I(Op::StoreFrame, TypeTag::I32, 0),
                                I(Op::Ret)},
                               {2, 3});
  const std::uint64_t before = derivedCostSum(p);
  const clc::OptStats stats = clc::optimizeWith(p, only(true, false, false, false));
  EXPECT_EQ(stats.foldedInstrs, 1u);
  ASSERT_EQ(p.code.size(), 3u);
  EXPECT_EQ(p.code[0].op, Op::PushConst);
  EXPECT_EQ(p.constants[std::size_t(p.code[0].a)], 5u);
  EXPECT_EQ(p.code[1].op, Op::StoreFrame);
  EXPECT_EQ(tableCostSum(p), before);
}

TEST(OptPass, PropagatesFrameConstantThroughStore) {
  clc::Program p = makeProgram({I(Op::PushFrameAddr, TypeTag::I32, 0),
                                I(Op::PushConst, TypeTag::I32, 0),
                                I(Op::Store, TypeTag::I32),
                                I(Op::PushFrameAddr, TypeTag::I32, 8),
                                I(Op::PushFrameAddr, TypeTag::I32, 0),
                                I(Op::Load, TypeTag::I32),
                                I(Op::Store, TypeTag::I32),
                                I(Op::Ret)},
                               {7});
  const std::uint64_t before = derivedCostSum(p);
  const clc::OptStats stats = clc::optimizeWith(p, only(true, false, false, false));
  EXPECT_EQ(stats.propagatedLoads, 1u);
  for (const Instr& in : p.code) {
    EXPECT_NE(in.op, Op::Load) << "frame load should be a constant now";
  }
  EXPECT_EQ(tableCostSum(p), before);
}

TEST(OptPass, IdentityAddZeroU64) {
  clc::Program p = makeProgram({I(Op::PushFrameAddr, TypeTag::Ptr, 8),
                                I(Op::PushFrameAddr, TypeTag::Ptr, 0),
                                I(Op::Load, TypeTag::U64),
                                I(Op::PushConst, TypeTag::U64, 0),
                                I(Op::Add, TypeTag::U64),
                                I(Op::Store, TypeTag::U64),
                                I(Op::Ret)},
                               {0});
  const std::uint64_t before = derivedCostSum(p);
  const clc::OptStats stats = clc::optimizeWith(p, only(false, true, false, false));
  EXPECT_EQ(stats.simplifiedInstrs, 1u);
  ASSERT_EQ(p.code.size(), 5u);
  EXPECT_EQ(p.code[2].op, Op::Load);
  EXPECT_EQ(p.code[3].op, Op::Store);
  EXPECT_EQ(tableCostSum(p), before);
}

TEST(OptPass, StrengthReduceMulToShift) {
  clc::Program p = makeProgram({I(Op::PushFrameAddr, TypeTag::Ptr, 8),
                                I(Op::PushFrameAddr, TypeTag::Ptr, 0),
                                I(Op::Load, TypeTag::I32),
                                I(Op::PushConst, TypeTag::I32, 0),
                                I(Op::Mul, TypeTag::I32),
                                I(Op::Store, TypeTag::I32),
                                I(Op::Ret)},
                               {8});
  const std::uint64_t before = derivedCostSum(p);
  const clc::OptStats stats = clc::optimizeWith(p, only(false, true, false, false));
  EXPECT_EQ(stats.simplifiedInstrs, 1u);
  EXPECT_EQ(p.code[4].op, Op::Shl);
  EXPECT_EQ(p.constants[std::size_t(p.code[3].a)], 3u) << "shift amount";
  EXPECT_EQ(tableCostSum(p), before);
}

TEST(OptPass, StrengthReduceUnsignedDivAndRem) {
  clc::Program p = makeProgram({I(Op::PushFrameAddr, TypeTag::Ptr, 8),
                                I(Op::PushFrameAddr, TypeTag::Ptr, 0),
                                I(Op::Load, TypeTag::U32),
                                I(Op::PushConst, TypeTag::U32, 0),
                                I(Op::Div, TypeTag::U32),
                                I(Op::PushConst, TypeTag::U32, 0),
                                I(Op::Rem, TypeTag::U32),
                                I(Op::Store, TypeTag::U32),
                                I(Op::Ret)},
                               {16});
  const std::uint64_t before = derivedCostSum(p);
  const clc::OptStats stats = clc::optimizeWith(p, only(false, true, false, false));
  EXPECT_EQ(stats.simplifiedInstrs, 2u);
  EXPECT_EQ(p.code[4].op, Op::Shr);
  EXPECT_EQ(p.constants[std::size_t(p.code[3].a)], 4u);
  EXPECT_EQ(p.code[6].op, Op::BitAnd);
  EXPECT_EQ(p.constants[std::size_t(p.code[5].a)], 15u);
  // Div cost 8 rides on the cheap Shr: totals must still match.
  EXPECT_EQ(tableCostSum(p), before);
}

TEST(OptPass, SignedDivisionIsNotStrengthReduced) {
  clc::Program p = makeProgram({I(Op::PushFrameAddr, TypeTag::Ptr, 8),
                                I(Op::PushFrameAddr, TypeTag::Ptr, 0),
                                I(Op::Load, TypeTag::I32),
                                I(Op::PushConst, TypeTag::I32, 0),
                                I(Op::Div, TypeTag::I32),
                                I(Op::Store, TypeTag::I32),
                                I(Op::Ret)},
                               {4});
  const clc::OptStats stats = clc::optimizeWith(p, only(false, true, false, false));
  EXPECT_EQ(stats.simplifiedInstrs, 0u);
  EXPECT_EQ(p.code[4].op, Op::Div) << "rounds toward zero, shift would floor";
}

TEST(OptPass, RemovesPushPopPairs) {
  clc::Program p = makeProgram({I(Op::PushConst, TypeTag::I32, 0),
                                I(Op::Pop),
                                I(Op::PushFrameAddr, TypeTag::Ptr, 0),
                                I(Op::Pop),
                                I(Op::Ret)},
                               {42});
  const std::uint64_t before = derivedCostSum(p);
  const clc::OptStats stats = clc::optimizeWith(p, only(false, false, true, false));
  EXPECT_EQ(stats.removedInstrs, 4u);
  ASSERT_EQ(p.code.size(), 1u);
  EXPECT_EQ(p.code[0].op, Op::Ret);
  // All removed cycles now ride on Ret.
  EXPECT_EQ(tableCostSum(p), before);
}

TEST(OptPass, FoldsKnownBranchAndDropsUnreachable) {
  clc::Program p = makeProgram({I(Op::PushConst, TypeTag::I32, 0),
                                I(Op::Jz, TypeTag::I32, 3),
                                I(Op::Trap, TypeTag::I32, 1),
                                I(Op::Ret)},
                               {0});
  const clc::OptStats stats = clc::optimizeWith(p, only(true, false, true, false));
  EXPECT_EQ(stats.foldedBranches, 1u);
  ASSERT_EQ(p.code.size(), 2u);
  EXPECT_EQ(p.code[0].op, Op::Jmp);
  EXPECT_EQ(p.code[0].a, 1);
  EXPECT_EQ(p.code[1].op, Op::Ret);
  // Push + Jz cycles live on the Jmp; the unreachable Trap is cost-free.
  EXPECT_EQ(tableCostSum(p),
            clc::opCycleCost(Op::PushConst) + clc::opCycleCost(Op::Jz) +
                clc::opCycleCost(Op::Ret));
}

TEST(OptPass, FusesLoadFrame) {
  clc::Program p = makeProgram({I(Op::PushFrameAddr, TypeTag::Ptr, 4),
                                I(Op::Load, TypeTag::F32),
                                I(Op::Ret)},
                               {});
  const std::uint64_t before = derivedCostSum(p);
  const clc::OptStats stats = clc::optimizeWith(p, only(false, false, false, true));
  EXPECT_GE(stats.fusedInstrs, 1u);
  ASSERT_EQ(p.code.size(), 2u);
  EXPECT_EQ(p.code[0].op, Op::LoadFrame);
  EXPECT_EQ(p.code[0].tag, TypeTag::F32);
  EXPECT_EQ(p.code[0].a, 4);
  EXPECT_EQ(p.cycleCosts[0],
            clc::opCycleCost(Op::PushFrameAddr) + clc::opCycleCost(Op::Load));
  EXPECT_EQ(tableCostSum(p), before);
}

TEST(OptPass, SuperinstructionCostIsTheSumOfItsSequence) {
  const auto seq = [](std::initializer_list<Op> ops) {
    std::uint32_t sum = 0;
    for (const Op op : ops) {
      sum += clc::instrCycleCost(I(op));
    }
    return sum;
  };
  const auto cost = [](Op op, std::int32_t a) {
    return clc::instrCycleCost(I(op, TypeTag::I32, a));
  };
  EXPECT_EQ(cost(Op::LoadFrame, 0), seq({Op::PushFrameAddr, Op::Load}));
  EXPECT_EQ(cost(Op::StoreFrame, 0), seq({Op::PushFrameAddr, Op::Store}));
  EXPECT_EQ(cost(Op::MulAdd, 0), seq({Op::Mul, Op::Add}));
  int embedded = 0;
  for (int i = 0; i <= int(clc::kMaxOp); ++i) {
    const Op op = Op(i);
    if (!clc::isBinaryArithOp(op) && !clc::isCompareOp(op)) {
      continue;
    }
    SCOPED_TRACE(clc::opName(op));
    ++embedded;
    EXPECT_EQ(cost(Op::BinConst, clc::encodeEmbedOp(op, 0)),
              seq({Op::PushConst, op}));
    EXPECT_EQ(cost(Op::FrameBin, clc::encodeEmbedOp(op, 0)),
              seq({Op::PushFrameAddr, Op::Load, op}));
    EXPECT_EQ(cost(Op::LoadBin, std::int32_t(op)), seq({Op::Load, op}));
    EXPECT_EQ(cost(Op::FrameBin2, clc::encodeFrame2(op, 0, 8)),
              seq({Op::PushFrameAddr, Op::Load, Op::PushFrameAddr, Op::Load,
                   op}));
    if (clc::isCompareOp(op)) {
      EXPECT_EQ(cost(Op::CmpJz, clc::encodeCmpJump(op, 0)), seq({op, Op::Jz}));
      EXPECT_EQ(cost(Op::CmpJnz, clc::encodeCmpJump(op, 0)),
                seq({op, Op::Jnz}));
    }
  }
  EXPECT_EQ(embedded, 16); // ten binops, six compares
}

TEST(OptPass, FusesStoreFrameAcrossRegion) {
  clc::Program p = makeProgram({I(Op::PushFrameAddr, TypeTag::Ptr, 8),
                                I(Op::PushConst, TypeTag::I32, 0),
                                I(Op::Store, TypeTag::I32),
                                I(Op::Ret)},
                               {9});
  const std::uint64_t before = derivedCostSum(p);
  clc::optimizeWith(p, only(false, false, false, true));
  ASSERT_EQ(p.code.size(), 3u);
  // The PushConst itself fuses with nothing (Store is not a binop), so the
  // shape is [PushConst, StoreFrame, Ret].
  EXPECT_EQ(p.code[0].op, Op::PushConst);
  EXPECT_EQ(p.code[1].op, Op::StoreFrame);
  EXPECT_EQ(p.code[1].a, 8);
  EXPECT_EQ(tableCostSum(p), before);
}

TEST(OptPass, FusesIncrementIdiom) {
  // x += 1 as codegen emits it: addr, dup, load, const, add, store.
  clc::Program p = makeProgram({I(Op::PushFrameAddr, TypeTag::Ptr, 16),
                                I(Op::Dup),
                                I(Op::Load, TypeTag::I32),
                                I(Op::PushConst, TypeTag::I32, 0),
                                I(Op::Add, TypeTag::I32),
                                I(Op::Store, TypeTag::I32),
                                I(Op::Ret)},
                               {1});
  const std::uint64_t before = derivedCostSum(p);
  clc::optimizeWith(p, only(false, false, false, true));
  ASSERT_EQ(p.code.size(), 4u);
  EXPECT_EQ(p.code[0].op, Op::LoadFrame);
  EXPECT_EQ(p.code[0].a, 16);
  EXPECT_EQ(p.code[1].op, Op::BinConst) << "push+add fuse in a later round";
  EXPECT_EQ(clc::embeddedOp(p.code[1].a), Op::Add);
  EXPECT_EQ(p.code[2].op, Op::StoreFrame);
  EXPECT_EQ(p.code[2].a, 16);
  EXPECT_EQ(tableCostSum(p), before);
}

TEST(OptPass, FusesCompareJump) {
  clc::Program p = makeProgram({I(Op::PushFrameAddr, TypeTag::Ptr, 0),
                                I(Op::Load, TypeTag::I32),
                                I(Op::PushConst, TypeTag::I32, 0),
                                I(Op::CmpLt, TypeTag::I32),
                                I(Op::Jz, TypeTag::I32, 5),
                                I(Op::Ret)},
                               {5});
  const std::uint64_t before = derivedCostSum(p);
  clc::optimizeWith(p, only(false, false, false, true));
  // [LoadFrame, PushConst, CmpJz, Ret]; the compare feeding the jump is
  // deliberately NOT embedded into BinConst.
  ASSERT_EQ(p.code.size(), 4u);
  EXPECT_EQ(p.code[0].op, Op::LoadFrame);
  EXPECT_EQ(p.code[1].op, Op::PushConst);
  EXPECT_EQ(p.code[2].op, Op::CmpJz);
  EXPECT_EQ(clc::cmpFromJump(p.code[2].a), Op::CmpLt);
  EXPECT_EQ(clc::cmpJumpTarget(p.code[2].a), 3);
  EXPECT_EQ(tableCostSum(p), before);
}

TEST(OptPass, FusesBinConstFrameBinLoadBinMulAdd) {
  clc::Program p = makeProgram({I(Op::PushConst, TypeTag::I32, 0),
                                I(Op::Mul, TypeTag::I32),
                                I(Op::LoadFrame, TypeTag::F32, 8),
                                I(Op::Sub, TypeTag::F32),
                                I(Op::Load, TypeTag::F32),
                                I(Op::Add, TypeTag::F32),
                                I(Op::Mul, TypeTag::F32),
                                I(Op::Add, TypeTag::F32),
                                I(Op::Ret)},
                               {3});
  const std::uint64_t before = derivedCostSum(p);
  clc::optimizeWith(p, only(false, false, false, true));
  ASSERT_EQ(p.code.size(), 5u);
  EXPECT_EQ(p.code[0].op, Op::BinConst);
  EXPECT_EQ(clc::embeddedOp(p.code[0].a), Op::Mul);
  EXPECT_EQ(p.code[1].op, Op::FrameBin);
  EXPECT_EQ(clc::embeddedOp(p.code[1].a), Op::Sub);
  EXPECT_EQ(clc::embeddedOperand(p.code[1].a), 8);
  EXPECT_EQ(p.code[2].op, Op::LoadBin);
  EXPECT_EQ(Op(p.code[2].a), Op::Add);
  EXPECT_EQ(p.code[3].op, Op::MulAdd);
  EXPECT_EQ(tableCostSum(p), before);
}

TEST(OptPass, DeadFrameStoreBecomesPop) {
  clc::Program p = makeProgram({I(Op::LoadFrame, TypeTag::I32, 0),
                                I(Op::StoreFrame, TypeTag::I32, 16),
                                I(Op::Ret)},
                               {});
  const std::uint64_t before = derivedCostSum(p);
  const clc::OptStats stats = clc::optimizeWith(p, only(false, false, true, true));
  EXPECT_EQ(stats.deadStores, 1u);
  // Store of a never-read slot became a Pop; the load+pop pair then
  // vanished entirely, leaving the cycles on Ret.
  ASSERT_EQ(p.code.size(), 1u);
  EXPECT_EQ(p.code[0].op, Op::Ret);
  EXPECT_EQ(tableCostSum(p), before);
}

TEST(OptPass, StoreFrameReadBackStaysLive) {
  // Two reads of the spilled slot: store->load forwarding must not fire,
  // and the dead-store pass must see the reads — which fuse into a
  // FrameBin2 — and keep the store.
  clc::Program p = makeProgram({I(Op::LoadFrame, TypeTag::I32, 0),
                                I(Op::StoreFrame, TypeTag::I32, 16),
                                I(Op::LoadFrame, TypeTag::I32, 16),
                                I(Op::LoadFrame, TypeTag::I32, 16),
                                I(Op::Add, TypeTag::I32),
                                I(Op::StoreFrame, TypeTag::I32, 0),
                                I(Op::Ret)},
                               {});
  const clc::OptStats stats = clc::optimizeWith(p, only(false, false, true, true));
  EXPECT_EQ(stats.deadStores, 0u);
  EXPECT_EQ(stats.forwardedStores, 0u);
  ASSERT_EQ(p.code.size(), 5u);
  EXPECT_EQ(p.code[1].op, Op::StoreFrame);
  EXPECT_EQ(p.code[2].op, Op::FrameBin2);
}

TEST(OptPass, FusesFrameBin2) {
  clc::Program p = makeProgram({I(Op::LoadFrame, TypeTag::F32, 0),
                                I(Op::LoadFrame, TypeTag::F32, 4),
                                I(Op::Mul, TypeTag::F32),
                                I(Op::StoreFrame, TypeTag::F32, 8),
                                I(Op::Ret)},
                               {});
  const std::uint64_t before = derivedCostSum(p);
  const clc::OptStats stats =
      clc::optimizeWith(p, only(false, false, false, true));
  EXPECT_GE(stats.fusedInstrs, 2u);
  ASSERT_EQ(p.code.size(), 3u);
  EXPECT_EQ(p.code[0].op, Op::FrameBin2);
  EXPECT_EQ(clc::frame2Op(p.code[0].a), Op::Mul);
  EXPECT_EQ(clc::frame2X(p.code[0].a), 0);
  EXPECT_EQ(clc::frame2Y(p.code[0].a), 4);
  // LoadFrame (3) + LoadFrame (3) + Mul (1) all ride on one instruction.
  EXPECT_EQ(p.cycleCosts[0], 7u);
  EXPECT_EQ(tableCostSum(p), before);
}

TEST(OptPass, ThreadsConstantConditionDiamonds) {
  // The codegen shape for `if (a && b)`: each arm pushes 0/1 and the
  // merged value is compared against 0. Fusion builds the CmpJz head;
  // threading then collapses both arms into direct jumps, each charged
  // the cycles of the path it replaced, and the orphaned head dies.
  clc::Program p = makeProgram(
      {I(Op::LoadFrame, TypeTag::I32, 0),
       I(Op::Jnz, TypeTag::I32, 4),
       I(Op::PushConst, TypeTag::I32, 0), // false arm
       I(Op::Jmp, TypeTag::I32, 5),
       I(Op::PushConst, TypeTag::I32, 1), // true arm, falls into the head
       I(Op::PushConst, TypeTag::I32, 0), // head: merged value != 0 ?
       I(Op::CmpJz, TypeTag::I32, clc::encodeCmpJump(Op::CmpNe, 9)),
       I(Op::PushConst, TypeTag::I32, 1), // body
       I(Op::StoreFrame, TypeTag::I32, 0),
       I(Op::Ret)},
      {0, 1});
  const clc::OptStats stats =
      clc::optimizeWith(p, only(false, false, true, true));
  EXPECT_EQ(stats.foldedBranches, 2u);
  ASSERT_EQ(p.code.size(), 7u);
  EXPECT_EQ(p.code[2].op, Op::Jmp);
  EXPECT_EQ(p.code[2].a, 6) << "false arm jumps past the body";
  EXPECT_EQ(p.code[3].op, Op::Jmp);
  EXPECT_EQ(p.code[3].a, 4) << "true arm jumps into the body";
  // push (1) + jmp (1) + head push (1) + cmp_jz (2) on the false arm;
  // the fall-through true arm had no jmp of its own.
  EXPECT_EQ(p.cycleCosts[2], 5u);
  EXPECT_EQ(p.cycleCosts[3], 4u);
}

TEST(OptPass, ForwardsSpillReloadPair) {
  // A value spilled to slot 8 and reloaded exactly once while unrelated
  // slots are written in between stays on the operand stack.
  clc::Program p = makeProgram({I(Op::LoadFrame, TypeTag::F32, 0),
                                I(Op::StoreFrame, TypeTag::F32, 8),
                                I(Op::PushConst, TypeTag::F32, 0),
                                I(Op::StoreFrame, TypeTag::F32, 16),
                                I(Op::LoadFrame, TypeTag::F32, 8),
                                I(Op::StoreFrame, TypeTag::F32, 0),
                                I(Op::Ret)},
                               {0x40000000ull}); // 2.0f
  const std::uint64_t before = derivedCostSum(p);
  const clc::OptStats stats =
      clc::optimizeWith(p, only(false, false, false, true));
  EXPECT_EQ(stats.forwardedStores, 1u);
  ASSERT_EQ(p.code.size(), 5u);
  EXPECT_EQ(p.code[1].op, Op::PushConst);
  EXPECT_EQ(p.code[3].op, Op::StoreFrame);
  EXPECT_EQ(p.code[3].a, 0);
  EXPECT_EQ(tableCostSum(p), before);
}

TEST(OptPass, DoesNotForwardAcrossNonCanonicalProducer) {
  // An U8 load leaves a zero-extended slot, but here the producer tag (I8,
  // sign-extending) differs from the store's U8 round-trip, so skipping
  // the spill/reload could change the bits: the pair must stay.
  clc::Program p = makeProgram({I(Op::LoadFrame, TypeTag::I8, 0),
                                I(Op::StoreFrame, TypeTag::U8, 8),
                                I(Op::LoadFrame, TypeTag::U8, 8),
                                I(Op::StoreFrame, TypeTag::U8, 1),
                                I(Op::Ret)},
                               {});
  const clc::OptStats stats =
      clc::optimizeWith(p, only(false, false, false, true));
  EXPECT_EQ(stats.forwardedStores, 0u);
  ASSERT_EQ(p.code.size(), 5u);
  EXPECT_EQ(p.code[1].op, Op::StoreFrame);
}

TEST(OptPass, OptLevelZeroLeavesProgramUntouched) {
  const std::string source = "__kernel void k(__global int* d) { d[0] = 1 + 2; }";
  clc::Program p = clc::compile(source);
  const std::vector<Instr> original = p.code;
  clc::optimize(p, clc::OptLevel::O0);
  EXPECT_EQ(p.optLevel, 0u);
  ASSERT_EQ(p.code.size(), original.size());
  ASSERT_EQ(p.cycleCosts.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(p.code[i].op, original[i].op);
    EXPECT_EQ(p.code[i].a, original[i].a);
    EXPECT_EQ(p.cycleCosts[i], clc::instrCycleCost(p.code[i]));
  }
}

// --- serialization of optimized programs ------------------------------------

TEST(OptSerialize, RoundTripsOptimizedProgram) {
  const std::string source =
      readRepoFile("src/mandelbrot/kernels/mandelbrot_opencl.cl");
  clc::Program p = clc::compile(source);
  clc::optimize(p, clc::OptLevel::O2);
  ASSERT_EQ(p.cycleCosts.size(), p.code.size());

  const std::vector<std::uint8_t> bytes = clc::serializeProgram(p);
  const clc::Program q = clc::deserializeProgram(bytes);
  EXPECT_EQ(q.optLevel, 2u);
  EXPECT_EQ(q.constants, p.constants);
  EXPECT_EQ(q.cycleCosts, p.cycleCosts);
  ASSERT_EQ(q.code.size(), p.code.size());
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    EXPECT_EQ(q.code[i].op, p.code[i].op);
    EXPECT_EQ(q.code[i].tag, p.code[i].tag);
    EXPECT_EQ(q.code[i].a, p.code[i].a);
  }
}

TEST(OptSerialize, RejectsFrameOffsetOutOfBounds) {
  clc::Program p = makeProgram({I(Op::LoadFrame, TypeTag::I32, 60),
                                I(Op::Ret)},
                               {}, /*frameSize=*/8);
  const std::vector<std::uint8_t> bytes = clc::serializeProgram(p);
  EXPECT_THROW(clc::deserializeProgram(bytes), common::DeserializeError);
}

TEST(OptSerialize, RejectsUnknownOpcode) {
  clc::Program p = makeProgram({I(Op(std::uint8_t(clc::kMaxOp) + 1)),
                                I(Op::Ret)},
                               {});
  const std::vector<std::uint8_t> bytes = clc::serializeProgram(p);
  EXPECT_THROW(clc::deserializeProgram(bytes), common::DeserializeError);
}

TEST(OptSerialize, RejectsMalformedBinConst) {
  // Operand index 5 with only one pool constant.
  clc::Program p = makeProgram({I(Op::BinConst, TypeTag::I32,
                                  clc::encodeEmbedOp(Op::Add, 5)),
                                I(Op::Ret)},
                               {1});
  const std::vector<std::uint8_t> bytes = clc::serializeProgram(p);
  EXPECT_THROW(clc::deserializeProgram(bytes), common::DeserializeError);
}

TEST(OptSerialize, RejectsMalformedFrameBin2) {
  // Second frame offset reaches past the 8-byte frame.
  clc::Program p = makeProgram({I(Op::FrameBin2, TypeTag::I32,
                                  clc::encodeFrame2(Op::Add, 0, 60)),
                                I(Op::Pop),
                                I(Op::Ret)},
                               {}, /*frameSize=*/8);
  const std::vector<std::uint8_t> bytes = clc::serializeProgram(p);
  EXPECT_THROW(clc::deserializeProgram(bytes), common::DeserializeError);
}

TEST(OptSerialize, RejectsMismatchedCycleTable) {
  clc::Program p = makeProgram({I(Op::Ret)}, {});
  p.cycleCosts = {1, 2, 3}; // wrong length for one instruction
  const std::vector<std::uint8_t> bytes = clc::serializeProgram(p);
  EXPECT_THROW(clc::deserializeProgram(bytes), common::DeserializeError);
}

} // namespace
