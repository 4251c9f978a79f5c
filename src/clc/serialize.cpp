#include "clc/serialize.h"

#include "clc/verify.h"
#include "common/byte_stream.h"

namespace clc {

namespace {
constexpr std::uint32_t kMagic = 0x434c4342; // "CLCB"
constexpr std::size_t kInstrBytes = 1 + 1 + 4;  // op, tag, operand
} // namespace

std::vector<std::uint8_t> serializeProgram(const Program& program) {
  common::ByteWriter w;
  w.write<std::uint32_t>(kMagic);
  w.write<std::uint32_t>(Program::kSerialVersion);
  w.writeString(program.sourceHash);

  w.write<std::uint64_t>(program.code.size());
  for (const Instr& instr : program.code) {
    w.write<std::uint8_t>(static_cast<std::uint8_t>(instr.op));
    w.write<std::uint8_t>(static_cast<std::uint8_t>(instr.tag));
    w.write<std::int32_t>(instr.a);
  }

  w.writeVector(program.constants);

  w.write<std::uint64_t>(program.functions.size());
  for (const FunctionInfo& f : program.functions) {
    w.writeString(f.name);
    w.write<std::uint32_t>(f.codeStart);
    w.write<std::uint32_t>(f.codeEnd);
    w.write<std::uint32_t>(f.frameSize);
    w.write<std::uint8_t>(f.returnsValue ? 1 : 0);
    w.write<std::uint8_t>(f.returnsStruct ? 1 : 0);
    w.write<std::uint32_t>(f.returnSize);
    w.write<std::uint8_t>(f.isKernel ? 1 : 0);
    w.write<std::uint64_t>(f.params.size());
    for (const ParamInfo& p : f.params) {
      w.writeString(p.name);
      w.write<std::uint8_t>(static_cast<std::uint8_t>(p.kind));
      w.write<std::uint32_t>(p.size);
      w.write<std::uint8_t>(static_cast<std::uint8_t>(p.scalarTag));
      w.write<std::uint32_t>(p.frameOffset);
    }
  }

  w.write<std::uint64_t>(program.kernels.size());
  for (const KernelInfo& k : program.kernels) {
    w.writeString(k.name);
    w.write<std::uint32_t>(k.functionIndex);
    w.write<std::uint32_t>(k.staticLocalSize);
  }

  // v4: optimization level and the optimizer's per-instruction cycle table.
  w.write<std::uint8_t>(program.optLevel);
  w.writeVector(program.cycleCosts);
  return w.takeBytes();
}

Program deserializeProgram(const std::vector<std::uint8_t>& bytes) {
  common::ByteReader r(bytes);
  if (r.read<std::uint32_t>() != kMagic) {
    throw common::DeserializeError("not a clc program (bad magic)");
  }
  if (r.read<std::uint32_t>() != Program::kSerialVersion) {
    throw common::DeserializeError("clc program version mismatch");
  }
  Program program;
  program.sourceHash = r.readString();

  const std::size_t codeLen = r.readCount(kInstrBytes);
  program.code.reserve(codeLen);
  for (std::size_t i = 0; i < codeLen; ++i) {
    Instr instr;
    instr.op = static_cast<Op>(r.read<std::uint8_t>());
    instr.tag = static_cast<TypeTag>(r.read<std::uint8_t>());
    instr.a = r.read<std::int32_t>();
    program.code.push_back(instr);
  }

  program.constants = r.readVector<std::uint64_t>();

  const auto funcCount = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < funcCount; ++i) {
    FunctionInfo f;
    f.name = r.readString();
    f.codeStart = r.read<std::uint32_t>();
    f.codeEnd = r.read<std::uint32_t>();
    f.frameSize = r.read<std::uint32_t>();
    f.returnsValue = r.read<std::uint8_t>() != 0;
    f.returnsStruct = r.read<std::uint8_t>() != 0;
    f.returnSize = r.read<std::uint32_t>();
    f.isKernel = r.read<std::uint8_t>() != 0;
    const auto paramCount = r.read<std::uint64_t>();
    for (std::uint64_t j = 0; j < paramCount; ++j) {
      ParamInfo p;
      p.name = r.readString();
      p.kind = static_cast<ParamKind>(r.read<std::uint8_t>());
      p.size = r.read<std::uint32_t>();
      p.scalarTag = static_cast<TypeTag>(r.read<std::uint8_t>());
      p.frameOffset = r.read<std::uint32_t>();
      f.params.push_back(std::move(p));
    }
    program.functions.push_back(std::move(f));
  }

  const auto kernelCount = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < kernelCount; ++i) {
    KernelInfo k;
    k.name = r.readString();
    k.functionIndex = r.read<std::uint32_t>();
    k.staticLocalSize = r.read<std::uint32_t>();
    program.kernels.push_back(std::move(k));
  }

  program.optLevel = r.read<std::uint8_t>();
  program.cycleCosts = r.readVector<std::uint32_t>();

  // Never trust a loaded program: the verifier proves everything the VM's
  // unchecked fast path relies on.
  try {
    verify(program);
  } catch (const VerifyError& e) {
    throw common::DeserializeError(std::string("invalid clc program: ") +
                                   e.what());
  }
  return program;
}

} // namespace clc
