#include <gtest/gtest.h>

#include "common/string_util.h"

using namespace common;

namespace {

TEST(LocCounter, CountsCodeLinesOnly) {
  const char* source = R"(
// a comment line
int main() {       // trailing comment counts the code
  /* block */ int a = 1;
  /* multi
     line
     comment */
  return a;
}

)";
  // Lines: "int main() {", "int a = 1;", "return a;", "}" -> 4
  EXPECT_EQ(countLinesOfCode(source), 4u);
}

TEST(LocCounter, BlockCommentSpanningCodeLines) {
  EXPECT_EQ(countLinesOfCode("int a; /* x\n y */ int b;"), 2u);
  EXPECT_EQ(countLinesOfCode("/* only\n comments\n here */"), 0u);
}

TEST(LocCounter, StringLiteralsAreNotComments) {
  EXPECT_EQ(countLinesOfCode("const char* s = \"// not a comment\";"), 1u);
  EXPECT_EQ(countLinesOfCode("const char* s = \"/* nope */\"; int a;"), 1u);
}

TEST(LocCounter, EmptyAndBlank) {
  EXPECT_EQ(countLinesOfCode(""), 0u);
  EXPECT_EQ(countLinesOfCode("\n\n  \n\t\n"), 0u);
}

} // namespace
