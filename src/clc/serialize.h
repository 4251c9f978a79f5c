// Binary (de)serialization of compiled Programs.
//
// This is the format SkelCL's on-disk kernel cache stores: loading a
// serialized program skips lexing/parsing/sema/codegen entirely, which is
// what makes cached kernels load much faster than building from source —
// the effect the paper reports as "at least five times faster".
#pragma once

#include <cstdint>
#include <vector>

#include "clc/bytecode.h"

namespace clc {

/// Serializes a program. The encoding is versioned; loaders reject
/// mismatched versions (the cache then falls back to a rebuild).
std::vector<std::uint8_t> serializeProgram(const Program& program);

/// Deserializes and verifies (verify.h); throws common::DeserializeError on
/// malformed, version-mismatched or unverifiable input.
Program deserializeProgram(const std::vector<std::uint8_t>& bytes);

} // namespace clc
