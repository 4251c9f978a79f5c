// clcc — standalone driver for the clc OpenCL-C compiler.
//
//   clcc file.cl             check: compile and report diagnostics
//   clcc --disasm file.cl    print the compiled bytecode; each line ends
//                            with the instruction's cycle cost and the
//                            kind of VM handler it resolved to (quick,
//                            untyped or generic; see clc/dispatch.h)
//   clcc --info file.cl      list kernels, parameters, frame sizes
//   clcc --emit out.clcbin file.cl   write the serialized binary
//
// The program is optimized at ocl::Program::build's default level (O2);
// `-O0` keeps the raw codegen output.
//
// Exit code 0 on success, 1 on compile errors, 2 on usage errors.
#include <cstdio>
#include <cstring>
#include <string>

#include "clc/codegen.h"
#include "clc/diag.h"
#include "clc/opt.h"
#include "clc/serialize.h"
#include "common/byte_stream.h"

namespace {

void printInfo(const clc::Program& program) {
  std::printf("functions: %zu, kernels: %zu, code: %zu instrs, "
              "constants: %zu\n",
              program.functions.size(), program.kernels.size(),
              program.code.size(), program.constants.size());
  for (const clc::KernelInfo& kernel : program.kernels) {
    const clc::FunctionInfo& f = program.functions[kernel.functionIndex];
    std::printf("kernel %s (frame %u bytes, static __local %u bytes)\n",
                kernel.name.c_str(), f.frameSize, kernel.staticLocalSize);
    for (std::size_t i = 0; i < f.params.size(); ++i) {
      const clc::ParamInfo& p = f.params[i];
      const char* kind = "?";
      switch (p.kind) {
        case clc::ParamKind::GlobalPtr: kind = "__global pointer"; break;
        case clc::ParamKind::LocalPtr: kind = "__local pointer"; break;
        case clc::ParamKind::Scalar: kind = "scalar"; break;
        case clc::ParamKind::Struct: kind = "struct (by value)"; break;
      }
      std::printf("  arg %zu: %-18s %s (%u bytes)\n", i, kind,
                  p.name.c_str(), p.size);
    }
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: clcc [-O0] [--disasm | --info | --emit <out>] "
               "<file.cl>\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  bool disasm = false;
  bool info = false;
  clc::OptLevel level = clc::OptLevel::O2;
  std::string emitPath;
  std::string inputPath;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--disasm") {
      disasm = true;
    } else if (arg == "--info") {
      info = true;
    } else if (arg == "-O0") {
      level = clc::OptLevel::O0;
    } else if (arg == "--emit") {
      if (++i >= argc) {
        return usage();
      }
      emitPath = argv[i];
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else if (inputPath.empty()) {
      inputPath = arg;
    } else {
      return usage();
    }
  }
  if (inputPath.empty()) {
    return usage();
  }

  std::string source;
  try {
    const auto bytes = common::readFile(inputPath);
    source.assign(bytes.begin(), bytes.end());
  } catch (const common::IoError& e) {
    std::fprintf(stderr, "clcc: %s\n", e.what());
    return 2;
  }

  clc::Program program;
  try {
    program = clc::compile(source);
    clc::optimize(program, level);
  } catch (const clc::CompileError& e) {
    std::fputs(clc::renderContext(source, e.loc(), e.message()).c_str(),
               stderr);
    return 1;
  }

  if (!emitPath.empty()) {
    common::writeFile(emitPath, clc::serializeProgram(program));
    std::printf("wrote %s\n", emitPath.c_str());
  }
  if (info) {
    printInfo(program);
  }
  if (disasm) {
    std::fputs(clc::disassemble(program).c_str(), stdout);
  }
  if (!info && !disasm && emitPath.empty()) {
    std::printf("%s: ok (%zu kernels, %zu instructions)\n",
                inputPath.c_str(), program.kernels.size(),
                program.code.size());
  }
  return 0;
}
