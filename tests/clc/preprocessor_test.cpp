#include <gtest/gtest.h>

#include "clc/lexer.h"

using clc::lexAndPreprocess;
using clc::TokKind;

namespace {

std::vector<std::string> texts(const std::string& source) {
  std::vector<std::string> out;
  for (const auto& tok : lexAndPreprocess(source)) {
    if (tok.kind == TokKind::Eof) break;
    out.push_back(tok.text.empty() ? std::string(clc::tokKindName(tok.kind))
                                   : tok.text);
  }
  return out;
}

TEST(Preprocessor, ObjectMacroExpands) {
  const auto tokens = lexAndPreprocess("#define N 128\nint a = N;");
  // int a = 128 ;
  ASSERT_GE(tokens.size(), 5u);
  EXPECT_EQ(tokens[3].kind, TokKind::IntLiteral);
  EXPECT_EQ(tokens[3].intValue, 128u);
}

TEST(Preprocessor, MacroBodyCanReferenceOtherMacros) {
  const auto tokens =
      lexAndPreprocess("#define A B\n#define B 7\nint x = A;");
  EXPECT_EQ(tokens[3].intValue, 7u);
}

TEST(Preprocessor, FunctionMacroSubstitutesArguments) {
  const auto tokens = lexAndPreprocess(
      "#define ADD(x, y) ((x) + (y))\nint v = ADD(1, 2);");
  std::vector<TokKind> got;
  for (const auto& t : tokens) got.push_back(t.kind);
  // int v = ( ( 1 ) + ( 2 ) ) ; <eof>
  const std::vector<TokKind> expected = {
      TokKind::KwInt,      TokKind::Identifier, TokKind::Eq,
      TokKind::LParen,     TokKind::LParen,     TokKind::IntLiteral,
      TokKind::RParen,     TokKind::Plus,       TokKind::LParen,
      TokKind::IntLiteral, TokKind::RParen,     TokKind::RParen,
      TokKind::Semicolon,  TokKind::Eof};
  EXPECT_EQ(got, expected);
}

TEST(Preprocessor, FunctionMacroArgsMayContainCommasInParens) {
  const auto tokens = lexAndPreprocess(
      "#define FIRST(a, b) a\nint v = FIRST(f(1, 2), 3);");
  // Expands to f(1, 2)
  bool sawF = false;
  for (const auto& t : tokens) {
    if (t.kind == TokKind::Identifier && t.text == "f") sawF = true;
  }
  EXPECT_TRUE(sawF);
}

TEST(Preprocessor, FunctionMacroNameWithoutCallIsLeftAlone) {
  const auto tokens = lexAndPreprocess("#define M(x) x\nint M;");
  EXPECT_EQ(tokens[1].kind, TokKind::Identifier);
  EXPECT_EQ(tokens[1].text, "M");
}

TEST(Preprocessor, UndefRemovesMacro) {
  const auto tokens = lexAndPreprocess(
      "#define N 1\n#undef N\nint N;");
  EXPECT_EQ(tokens[1].kind, TokKind::Identifier);
  EXPECT_EQ(tokens[1].text, "N");
}

TEST(Preprocessor, IfdefSelectsBranch) {
  const auto t1 = texts("#define A 1\n#ifdef A\nint x;\n#else\nfloat y;\n#endif");
  EXPECT_EQ(t1, (std::vector<std::string>{"int", "x", "';'"}));
  const auto t2 = texts("#ifdef A\nint x;\n#else\nfloat y;\n#endif");
  EXPECT_EQ(t2, (std::vector<std::string>{"float", "y", "';'"}));
}

TEST(Preprocessor, IfndefWorks) {
  const auto t = texts("#ifndef MISSING\nint x;\n#endif");
  EXPECT_EQ(t, (std::vector<std::string>{"int", "x", "';'"}));
}

TEST(Preprocessor, NestedConditionals) {
  const auto t = texts(
      "#define A 1\n#ifdef A\n#ifdef B\nint wrong;\n#else\nint right;\n"
      "#endif\n#endif");
  EXPECT_EQ(t, (std::vector<std::string>{"int", "right", "';'"}));
}

TEST(Preprocessor, DefinesInsideInactiveBranchAreSkipped) {
  const auto t = texts("#ifdef MISSING\n#define X 1\n#endif\nint X;");
  EXPECT_EQ(t, (std::vector<std::string>{"int", "X", "';'"}));
}

TEST(Preprocessor, PragmaIsIgnored) {
  const auto t = texts(
      "#pragma OPENCL EXTENSION cl_khr_fp64 : enable\nint x;");
  EXPECT_EQ(t, (std::vector<std::string>{"int", "x", "';'"}));
}

TEST(Preprocessor, PredefinedOpenClMacros) {
  const auto tokens = lexAndPreprocess("int f = CLK_LOCAL_MEM_FENCE;");
  EXPECT_EQ(tokens[3].kind, TokKind::IntLiteral);
  EXPECT_EQ(tokens[3].intValue, 1u);
  const auto pi = lexAndPreprocess("float p = M_PI_F;");
  EXPECT_EQ(pi[3].kind, TokKind::FloatLiteral);
  EXPECT_NEAR(pi[3].floatValue, 3.14159274, 1e-6);
}

TEST(Preprocessor, PreludeIsFreshForEverySource) {
  // The prelude is lexed once and shared: every source sees it whole,
  // and an #undef in one source does not reach the next.
  for (int round = 0; round < 2; ++round) {
    const auto pi = lexAndPreprocess("float p = M_PI_F;");
    ASSERT_EQ(pi[3].kind, TokKind::FloatLiteral) << round;
    EXPECT_NEAR(pi[3].floatValue, 3.14159274, 1e-6);
  }
  const auto undone = lexAndPreprocess("#undef M_PI_F\nfloat p = M_PI_F;");
  EXPECT_EQ(undone[3].kind, TokKind::Identifier);
  EXPECT_EQ(undone[3].text, "M_PI_F");
  const auto next = lexAndPreprocess("float p = M_PI_F;");
  EXPECT_EQ(next[3].kind, TokKind::FloatLiteral);
}

TEST(Preprocessor, ErrorsOnUnterminatedIf) {
  EXPECT_THROW(lexAndPreprocess("#ifdef A\nint x;"), clc::CompileError);
}

TEST(Preprocessor, ErrorsOnDanglingElseOrEndif) {
  EXPECT_THROW(lexAndPreprocess("#else\n"), clc::CompileError);
  EXPECT_THROW(lexAndPreprocess("#endif\n"), clc::CompileError);
}

TEST(Preprocessor, ErrorsOnWrongArgumentCount) {
  EXPECT_THROW(lexAndPreprocess("#define M(a,b) a\nint x = M(1);"),
               clc::CompileError);
}

TEST(Preprocessor, ErrorsOnUnknownDirective) {
  EXPECT_THROW(lexAndPreprocess("#include <foo.h>\n"), clc::CompileError);
}

TEST(Preprocessor, RecursiveMacroIsCaught) {
  EXPECT_THROW(lexAndPreprocess("#define A A\nint x = A;"),
               clc::CompileError);
}

TEST(Preprocessor, MultiLineMacroViaContinuation) {
  const auto tokens = lexAndPreprocess(
      "#define BIG(x) \\\n  ((x) * \\\n   (x))\nint v = BIG(3);");
  std::size_t parens = 0;
  for (const auto& t : tokens) {
    if (t.kind == TokKind::LParen) ++parens;
  }
  EXPECT_EQ(parens, 3u);
}

} // namespace
