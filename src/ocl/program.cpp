#include "ocl/program.h"

#include <cstring>

#include "clc/codegen.h"
#include "clc/diag.h"
#include "clc/opt.h"
#include "clc/serialize.h"
#include "ocl/fault.h"

namespace ocl {

clc::OptLevel optLevelOf(const std::string& options) {
  static const std::string kFlag = "-cl-opt-level=";
  std::size_t pos = 0;
  clc::OptLevel level = clc::OptLevel::O2;
  while (pos < options.size()) {
    const std::size_t start = options.find_first_not_of(" \t", pos);
    if (start == std::string::npos) {
      break;
    }
    std::size_t stop = options.find_first_of(" \t", start);
    if (stop == std::string::npos) {
      stop = options.size();
    }
    const std::string token = options.substr(start, stop - start);
    if (token.rfind(kFlag, 0) == 0) {
      const std::string value = token.substr(kFlag.size());
      if (value == "0") {
        level = clc::OptLevel::O0;
      } else if (value == "2") {
        level = clc::OptLevel::O2;
      } else {
        throw BuildError("invalid build options",
                         "unsupported value in '" + token +
                             "' (expected -cl-opt-level=0|2)");
      }
    }
    pos = stop;
  }
  return level;
}

Program Program::fromSource(std::string source) {
  Program p;
  p.impl_ = std::make_shared<Impl>();
  p.impl_->source = std::move(source);
  return p;
}

Program Program::fromBinary(const std::vector<std::uint8_t>& binary) {
  Program p;
  p.impl_ = std::make_shared<Impl>();
  p.impl_->program = clc::deserializeProgram(binary);
  p.impl_->built = true;
  p.impl_->buildLog = "(loaded from binary)";
  return p;
}

void Program::build(const std::string& options) {
  COMMON_CHECK_MSG(impl_ != nullptr, "build on invalid Program");
  if (impl_->built) {
    return;
  }
  const clc::OptLevel level = optLevelOf(options);
  if (FaultInjector::enabled()) {
    if (FaultInjector::instance().check(FaultSite::Build, impl_->source)) {
      // Injected CL_BUILD_PROGRAM_FAILURE: the program stays unbuilt and
      // can be rebuilt later (a real driver can fail transiently too).
      impl_->buildLog = "injected build failure (CL_BUILD_PROGRAM_FAILURE)";
      throw BuildError("program build failed: injected fault",
                       impl_->buildLog);
    }
  }
  try {
    impl_->program = clc::compile(impl_->source);
    clc::optimize(impl_->program, level);
    impl_->built = true;
    impl_->buildLog = "build successful";
  } catch (const clc::CompileError& e) {
    impl_->buildLog =
        clc::renderContext(impl_->source, e.loc(), e.message());
    throw BuildError("program build failed: " + std::string(e.what()),
                     impl_->buildLog);
  }
}

bool Program::isBuilt() const {
  return impl_ != nullptr && impl_->built;
}

const std::string& Program::buildLog() const {
  COMMON_CHECK(impl_ != nullptr);
  return impl_->buildLog;
}

const std::string& Program::source() const {
  COMMON_CHECK(impl_ != nullptr);
  return impl_->source;
}

std::vector<std::uint8_t> Program::binary() const {
  COMMON_EXPECTS(isBuilt(), "binary() requires a built program");
  return clc::serializeProgram(impl_->program);
}

const clc::Program& Program::compiled() const {
  COMMON_EXPECTS(isBuilt(), "program is not built");
  return impl_->program;
}

std::vector<std::string> Program::kernelNames() const {
  COMMON_EXPECTS(isBuilt(), "program is not built");
  std::vector<std::string> names;
  for (const auto& k : impl_->program.kernels) {
    names.push_back(k.name);
  }
  return names;
}

Kernel Program::createKernel(const std::string& name) const {
  COMMON_EXPECTS(isBuilt(), "createKernel requires a built program");
  // Alias the shared_ptr so the kernel keeps the program alive.
  auto compiledPtr = std::shared_ptr<const clc::Program>(
      impl_, &impl_->program);
  return Kernel(std::move(compiledPtr), name);
}

Kernel::Kernel(std::shared_ptr<const clc::Program> program, std::string name)
    : program_(std::move(program)), name_(std::move(name)) {
  kernel_ = program_->findKernel(name_);
  if (kernel_ == nullptr) {
    throw common::InvalidArgument("no kernel named '" + name_ +
                                  "' in program");
  }
  func_ = &program_->functions[kernel_->functionIndex];
  args_.resize(func_->params.size());
}

std::size_t Kernel::argCount() const {
  return func_ == nullptr ? 0 : func_->params.size();
}

const clc::ParamInfo& Kernel::param(std::size_t index) const {
  COMMON_EXPECTS(func_ != nullptr, "use of an invalid Kernel handle");
  if (index >= func_->params.size()) {
    throw common::InvalidArgument(
        "kernel '" + name_ + "' has " +
        std::to_string(func_->params.size()) + " arguments; index " +
        std::to_string(index) + " is out of range");
  }
  return func_->params[index];
}

void Kernel::setArg(std::size_t index, const Buffer& buffer) {
  const clc::ParamInfo& p = param(index);
  if (p.kind != clc::ParamKind::GlobalPtr) {
    throw common::InvalidArgument(
        "kernel '" + name_ + "' argument " + std::to_string(index) + " ('" +
        p.name + "') is not a __global pointer");
  }
  StagedArg arg;
  arg.set = true;
  arg.value.kind = clc::KernelArgValue::Kind::Buffer;
  arg.buffer = buffer;
  args_[index] = std::move(arg);
}

void Kernel::setScalar(std::size_t index, std::uint64_t slot,
                       clc::TypeTag tag) {
  const clc::ParamInfo& p = param(index);
  if (p.kind != clc::ParamKind::Scalar) {
    throw common::InvalidArgument(
        "kernel '" + name_ + "' argument " + std::to_string(index) + " ('" +
        p.name + "') is not a scalar");
  }
  StagedArg arg;
  arg.set = true;
  arg.value.kind = clc::KernelArgValue::Kind::Scalar;
  arg.value.scalar = clc::eval::convert(slot, tag, p.scalarTag);
  args_[index] = std::move(arg);
}

void Kernel::setArgBytes(std::size_t index, const void* data,
                         std::size_t size) {
  const clc::ParamInfo& p = param(index);
  if (p.kind != clc::ParamKind::Struct) {
    throw common::InvalidArgument(
        "kernel '" + name_ + "' argument " + std::to_string(index) + " ('" +
        p.name + "') is not a by-value struct");
  }
  if (size != p.size) {
    throw common::InvalidArgument(
        "kernel '" + name_ + "' argument " + std::to_string(index) +
        " expects " + std::to_string(p.size) + " bytes, got " +
        std::to_string(size));
  }
  StagedArg arg;
  arg.set = true;
  arg.value.kind = clc::KernelArgValue::Kind::Struct;
  arg.value.bytes.resize(size);
  std::memcpy(arg.value.bytes.data(), data, size);
  args_[index] = std::move(arg);
}

void Kernel::setArgLocal(std::size_t index, std::uint64_t bytes) {
  const clc::ParamInfo& p = param(index);
  if (p.kind != clc::ParamKind::LocalPtr) {
    throw common::InvalidArgument(
        "kernel '" + name_ + "' argument " + std::to_string(index) + " ('" +
        p.name + "') is not a __local pointer");
  }
  StagedArg arg;
  arg.set = true;
  arg.value.kind = clc::KernelArgValue::Kind::Local;
  arg.value.localSize = bytes;
  args_[index] = std::move(arg);
}

} // namespace ocl
