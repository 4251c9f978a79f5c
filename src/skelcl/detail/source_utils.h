// Helpers for handling user-supplied OpenCL-C function strings.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ocl/ocl.h"

namespace skelcl::detail {

/// One customizing function as SkelCL users pass it: plain OpenCL-C
/// source (paper Listing 1), parsed once at skeleton construction into
/// the names of the functions it defines at the top level, in definition
/// order. The last definition is the customizing function the skeleton
/// kernel calls; earlier ones are helpers it carries along. Expression
/// nodes share the parsed value, so nothing re-lexes the string later.
class UserFunction {
public:
  /// Lexes `source`, unless Runtime::userFunctionNames already holds
  /// its names from this init()..terminate() cycle. Throws
  /// common::InvalidArgument when it does not lex or defines no
  /// function.
  explicit UserFunction(std::string source);

  /// The shared, immutable form the skeletons and expression nodes hold.
  static std::shared_ptr<const UserFunction> parse(std::string source) {
    return std::make_shared<const UserFunction>(std::move(source));
  }

  const std::string& source() const { return source_; }
  const std::vector<std::string>& names() const { return names_; }
  /// The customizing function: the last top-level definition.
  const std::string& name() const { return names_.back(); }

private:
  std::string source_;
  std::vector<std::string> names_;
};

/// Returns `fn`'s source with every top-level-defined function (and every
/// call to it) renamed to `prefix` + its original name. Used by kernel
/// fusion to splice several customizing functions into one translation
/// unit without name capture: two stages may both define "func" or share
/// helper names. Whole-word textual replacement; member accesses
/// (`x.name`, `p->name`) are left alone.
std::string renameUserFunctions(const UserFunction& fn,
                                const std::string& prefix);

/// Builds (through Runtime::programFor) the element-wise combine program
///   __kernel void skelcl_combine(__global T* dst, __global const T* src,
///                                uint n) { dst[i] = f(dst[i], src[i]); }
/// used when collapsing a copy-distribution into a block-distribution
/// with a user combine operator (paper Sec. IV-B: "reduce (element-wise
/// add) all copies of error image").
ocl::Program buildCombineProgram(const std::string& elementType,
                                 const std::string& combineSource);

/// The concatenated OpenCL-side definitions of every registered user
/// struct type, prepended to all generated kernels.
std::string registeredTypeDefinitions();

} // namespace skelcl::detail
