#include "skelcl/detail/source_utils.h"

#include "clc/lexer.h"
#include "skelcl/detail/runtime.h"
#include "skelcl/type_name.h"

namespace skelcl::detail {

namespace {

bool isIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// The names of the functions `source` defines at the top level, in
/// definition order. Throws common::InvalidArgument when it does not lex
/// or defines no function.
std::vector<std::string> parseDefinedNames(const std::string& source) {
  std::vector<clc::Token> tokens;
  try {
    tokens = clc::lexAndPreprocess(source);
  } catch (const clc::CompileError& e) {
    throw common::InvalidArgument(
        std::string("cannot parse user function: ") + e.what());
  }
  std::vector<std::string> names;
  int depth = 0;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    const clc::Token& tok = tokens[i];
    if (tok.kind == clc::TokKind::LBrace) ++depth;
    if (tok.kind == clc::TokKind::RBrace) --depth;
    if (depth == 0 && tok.kind == clc::TokKind::Identifier &&
        tokens[i + 1].kind == clc::TokKind::LParen) {
      // A *definition* has '{' after its parameter list's closing ')'.
      int parens = 0;
      std::size_t j = i + 1;
      for (; j < tokens.size(); ++j) {
        if (tokens[j].kind == clc::TokKind::LParen) ++parens;
        if (tokens[j].kind == clc::TokKind::RParen && --parens == 0) {
          break;
        }
      }
      if (j + 1 < tokens.size() &&
          tokens[j + 1].kind == clc::TokKind::LBrace) {
        names.push_back(tok.text);
      }
    }
  }
  if (names.empty()) {
    throw common::InvalidArgument(
        "no function definition found in user source: " + source);
  }
  return names;
}

} // namespace

UserFunction::UserFunction(std::string source)
    : source_(std::move(source)),
      names_(Runtime::instance().userFunctionNames(source_,
                                                   parseDefinedNames)) {}

std::string renameUserFunctions(const UserFunction& fn,
                                const std::string& prefix) {
  if (prefix.empty()) {
    return fn.source();
  }
  std::string out = fn.source();
  for (const std::string& name : fn.names()) {
    std::string replaced;
    replaced.reserve(out.size());
    std::size_t pos = 0;
    while (pos < out.size()) {
      const std::size_t found = out.find(name, pos);
      if (found == std::string::npos) {
        replaced.append(out, pos, out.size() - pos);
        break;
      }
      replaced.append(out, pos, found - pos);
      const bool startsWord =
          found == 0 || !isIdentChar(out[found - 1]);
      const std::size_t after = found + name.size();
      const bool endsWord = after >= out.size() || !isIdentChar(out[after]);
      // Member accesses keep their names: `s.name` / `p->name` refer to
      // struct fields, not the function being renamed.
      const bool memberAccess =
          (found >= 1 && out[found - 1] == '.') ||
          (found >= 2 && out[found - 2] == '-' && out[found - 1] == '>');
      if (startsWord && endsWord && !memberAccess) {
        replaced += prefix + name;
      } else {
        replaced.append(name);
      }
      pos = after;
    }
    out = std::move(replaced);
  }
  return out;
}

std::string registeredTypeDefinitions() {
  return TypeRegistry::instance().definitions();
}

ocl::Program buildCombineProgram(const std::string& elementType,
                                 const std::string& combineSource) {
  // A combine source arrives per redistribution, not via a skeleton.
  const std::string name = UserFunction(combineSource).name();
  std::string source = registeredTypeDefinitions();
  source += combineSource;
  source += "\n__kernel void skelcl_combine(__global " + elementType +
            "* dst, __global const " + elementType +
            "* src, uint n) {\n"
            "  size_t i = get_global_id(0);\n"
            "  if (i < n) dst[i] = " +
            name +
            "(dst[i], src[i]);\n"
            "}\n";
  return Runtime::instance().programFor(source);
}

} // namespace skelcl::detail
