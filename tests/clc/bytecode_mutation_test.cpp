// Bytecode mutation property: the loader is the VM's only gate.
//
// Real kernels are compiled at O0 and O2, then one instruction at a time
// gets a random op, tag or operand. Each mutant is serialized and loaded;
// the loader must either reject it with common::DeserializeError or hand
// back a program the VM runs to a result or a TrapError. Nothing may crash
// the process. Mutants run in forked children so a crash is reported as a
// failure of that mutant instead of killing the test; a mutant that loops
// forever (a legal program, e.g. a retargeted back edge) is stopped after
// a short timeout and counted on its own.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "clc/opt.h"
#include "clc/serialize.h"
#include "clc_test_util.h"
#include "common/byte_stream.h"
#include "common/prng.h"

using namespace clc_test;

namespace {

std::string readRepoFile(const std::string& relative) {
  std::ifstream in(std::string(SKELCL_REPRO_SOURCE_DIR) + "/" + relative,
                   std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << relative;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A compiled kernel plus a launch that exercises it.
struct Subject {
  std::string name;
  clc::Program program;
  std::string kernel;
  std::size_t global = 4;
  std::size_t local = 2;
  // Buffer contents (as bytes) and the argument list referring to them.
  std::vector<std::vector<std::uint8_t>> buffers;
  std::vector<clc::KernelArgValue> args; // Buffer args index `buffers`
};

template <typename T>
std::vector<std::uint8_t> bytesOf(const std::vector<T>& v) {
  std::vector<std::uint8_t> out(v.size() * sizeof(T));
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

clc::KernelArgValue bufferArg(std::uint32_t index) {
  clc::KernelArgValue arg;
  arg.kind = clc::KernelArgValue::Kind::Buffer;
  arg.segmentIndex = index;
  return arg;
}

Subject compiled(const std::string& name, const std::string& source,
                 std::string kernel, clc::OptLevel level) {
  Subject s;
  s.name = name;
  s.name += level == clc::OptLevel::O0 ? "@O0" : "@O2";
  s.kernel = std::move(kernel);
  s.program = clc::compile(source);
  clc::optimize(s.program, level);
  return s;
}

std::vector<Subject> subjects() {
  const std::string mandelbrot =
      readRepoFile("src/mandelbrot/kernels/mandelbrot_opencl.cl");
  const std::string helpers = R"(
    typedef struct { float x; float y; } P;
    float dot2(P a, P b) { return a.x * b.x + a.y * b.y; }
    int clampi(int v, int lo, int hi) { return v < lo ? lo : (v > hi ? hi : v); }
    __kernel void k(__global P* ps, __global float* out, __global int* hist,
                    __local float* tmp, int n) {
      size_t i = get_global_id(0);
      int acc = 0;
      for (int j = 0; j < n; ++j) {
        acc += clampi((int)(ps[(i + j) % 4].x * j), -5, 5);
        if (acc > 7 && j > 2) break;
      }
      tmp[get_local_id(0)] = dot2(ps[i], ps[i]) + (float)acc;
      barrier(CLK_LOCAL_MEM_FENCE);
      atomic_add(&hist[acc & 3], 1);
      out[i] = sqrt(fabs(tmp[get_local_id(0)]));
    }
  )";
  std::vector<Subject> out;
  for (const clc::OptLevel level : {clc::OptLevel::O0, clc::OptLevel::O2}) {
    Subject m = compiled("mandelbrot", mandelbrot, "mandelbrot", level);
    m.buffers = {std::vector<std::uint8_t>(4 * 4 * sizeof(int), 0)};
    m.args = {bufferArg(0),        scalarArg(4),     scalarArg(4),
              scalarArg(-2.0f),    scalarArg(-1.5f), scalarArg(0.75f),
              scalarArg(0.75f),    scalarArg(12)};
    m.global = 4; // a 4x1 strip of the 4x4 image keeps each run tiny
    out.push_back(std::move(m));

    Subject h = compiled("helpers", helpers, "k", level);
    h.buffers = {bytesOf(std::vector<float>{1, 2, 3, 4, 5, 6, -1, 0}),
                 std::vector<std::uint8_t>(4 * sizeof(float), 0),
                 std::vector<std::uint8_t>(4 * sizeof(int), 0)};
    h.args = {bufferArg(0), bufferArg(1), bufferArg(2),
              localArg(2 * sizeof(float)), scalarArg(6)};
    out.push_back(std::move(h));
  }
  return out;
}

/// One-instruction mutation: a random op, tag, or operand (near the old
/// one, a small index, or any 32-bit value).
clc::Program mutate(const clc::Program& base, common::Xoshiro256& rng) {
  clc::Program p = base;
  clc::Instr& in = p.code[rng.nextBelow(p.code.size())];
  switch (rng.nextBelow(5)) {
    case 0:
      in.op = clc::Op(rng.nextBelow(std::size_t(clc::kMaxOp) + 3));
      break;
    case 1:
      in.tag = clc::TypeTag(rng.nextBelow(std::size_t(clc::kMaxTypeTag) + 3));
      break;
    case 2:
      in.a += std::int32_t(rng.nextBelow(9)) - 4;
      break;
    case 3:
      in.a = std::int32_t(rng.nextBelow(p.code.size() + 8)) - 2;
      break;
    default:
      in.a ^= std::int32_t(1u << rng.nextBelow(32));
      break;
  }
  return p;
}

enum Outcome : char {
  kRejected = 'R', // DeserializeError
  kFinished = 'F', // ran to a result
  kTrapped = 'T',  // TrapError
  kOther = 'E',    // any other exception: a failure
  kHung = 'H',     // still running at the timeout
  kCrashed = 'C',  // the child died: a failure
};

/// The outcome pipe of a forked child, for the sanitizer hook below.
int gOutcomeFd = -1;

} // namespace

/// AddressSanitizer calls this as soon as it detects an error, before it
/// spends time symbolizing the report, so a crash is never mistaken for a
/// hang. Other builds never call it.
extern "C" void __asan_on_error() {
  if (gOutcomeFd >= 0) {
    const char c = kCrashed;
    (void)!write(gOutcomeFd, &c, 1);
  }
}

namespace {

/// Loads and runs one mutant; called in the child process.
Outcome runMutant(const Subject& s, const std::vector<std::uint8_t>& bytes) {
  clc::Program program;
  try {
    program = clc::deserializeProgram(bytes);
  } catch (const common::DeserializeError&) {
    return kRejected;
  }
  std::vector<std::vector<std::uint8_t>> buffers = s.buffers;
  std::vector<clc::Segment> segments;
  for (auto& b : buffers) {
    segments.push_back(clc::Segment{b.data(), b.size()});
  }
  clc::NDRange range;
  range.globalSize[0] = s.global;
  range.localSize[0] = s.local;
  try {
    clc::executeKernel(program, s.kernel, range, s.args, segments, nullptr);
    return kFinished;
  } catch (const clc::TrapError&) {
    return kTrapped;
  } catch (...) {
    return kOther;
  }
}

/// Runs mutants [0, n) in forked children, one child per stretch of
/// well-behaved mutants: the child reports an outcome byte per mutant. A
/// child that dies (or reports a sanitizer error) took the pending mutant
/// with it; a silent one is killed and the pending mutant counts as hung.
/// Either way a new child resumes after that mutant.
std::vector<Outcome> runAll(const Subject& s,
                            const std::vector<std::vector<std::uint8_t>>& mutants) {
  constexpr int kHangTimeoutMs = 25;
  std::vector<Outcome> outcomes;
  while (outcomes.size() < mutants.size()) {
    int fds[2];
    if (pipe(fds) != 0) {
      ADD_FAILURE() << "pipe failed";
      break;
    }
    const std::size_t first = outcomes.size();
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      gOutcomeFd = fds[1];
      for (std::size_t i = first; i < mutants.size(); ++i) {
        const char c = runMutant(s, mutants[i]);
        if (write(fds[1], &c, 1) != 1) {
          _exit(2);
        }
      }
      _exit(0);
    }
    close(fds[1]);
    for (;;) {
      pollfd pfd{fds[0], POLLIN, 0};
      if (poll(&pfd, 1, kHangTimeoutMs) == 0) {
        kill(pid, SIGKILL);
        outcomes.push_back(kHung);
        break;
      }
      char c = 0;
      if (read(fds[0], &c, 1) != 1) {
        // The child exited: finished cleanly, or died on the next one.
        if (outcomes.size() < mutants.size()) {
          outcomes.push_back(kCrashed);
        }
        break;
      }
      outcomes.push_back(Outcome(c));
      if (c == kCrashed) {
        break;
      }
    }
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
  }
  return outcomes;
}

TEST(BytecodeMutation, EveryMutantIsRejectedOrRunsSafely) {
  constexpr int kMutantsPerSubject = 500;
  std::map<char, int> totals;
  std::uint64_t seed = 0x5eed0000;
  for (const Subject& s : subjects()) {
    common::Xoshiro256 rng(++seed);
    std::vector<std::vector<std::uint8_t>> mutants;
    for (int i = 0; i < kMutantsPerSubject; ++i) {
      mutants.push_back(clc::serializeProgram(mutate(s.program, rng)));
    }
    // The unmutated program must run to a result.
    ASSERT_EQ(runMutant(s, clc::serializeProgram(s.program)), kFinished)
        << s.name;
    const std::vector<Outcome> outcomes = runAll(s, mutants);
    ASSERT_EQ(outcomes.size(), mutants.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      ++totals[outcomes[i]];
      EXPECT_TRUE(outcomes[i] != kCrashed && outcomes[i] != kOther)
          << s.name << " mutant " << i << " outcome " << char(outcomes[i]);
    }
  }
  // Both sides of the gate are exercised.
  EXPECT_GT(totals[kRejected], 0);
  EXPECT_GT(totals[kFinished] + totals[kTrapped], 0);
  std::cout << "mutants: rejected " << totals[kRejected] << ", finished "
            << totals[kFinished] << ", trapped " << totals[kTrapped]
            << ", hung " << totals[kHung] << "\n";
}

} // namespace
