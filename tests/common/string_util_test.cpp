#include <gtest/gtest.h>

#include "common/string_util.h"

using namespace common;

namespace {

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\na\r "), "a");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(StringUtil, Split) {
  EXPECT_EQ(split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("trailing,", ','),
            (std::vector<std::string>{"trailing", ""}));
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(startsWith("__kernel void", "__kernel"));
  EXPECT_FALSE(startsWith("ab", "abc"));
  EXPECT_TRUE(endsWith("file.cl", ".cl"));
  EXPECT_FALSE(endsWith("cl", "file.cl"));
}

TEST(StringUtil, ReplaceAll) {
  EXPECT_EQ(replaceAll("a TYPE b TYPE", "TYPE", "float"),
            "a float b float");
  EXPECT_EQ(replaceAll("none", "x", "y"), "none");
  EXPECT_EQ(replaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

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
