// Error paths of the env-var and integer parsers: every malformed value
// must take the documented fallback, never a half-parsed or saturated
// number.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/env.h"

namespace {

constexpr const char* kVar = "SKELCL_ENV_TEST_VAR";

class EnvParsing : public ::testing::Test {
protected:
  void TearDown() override { ::unsetenv(kVar); }

  void set(const char* value) { ::setenv(kVar, value, 1); }
};

TEST_F(EnvParsing, UnsetTakesFallback) {
  ::unsetenv(kVar);
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 2.5), 2.5);
  EXPECT_EQ(common::envStr(kVar, "dflt"), "dflt");
  EXPECT_TRUE(common::envFlag(kVar, true));
  EXPECT_FALSE(common::envFlag(kVar, false));
}

// Integer values are parsed by common::parseInt, the one strict parser
// behind numeric knobs and tool flags alike; nullopt is its fallback.
TEST_F(EnvParsing, ValidValuesParse) {
  EXPECT_EQ(common::parseInt("42"), 42);
  EXPECT_EQ(common::parseInt("-3"), -3);
  EXPECT_EQ(common::parseInt("  12  "), 12); // surrounding whitespace is fine
  set("1.5");
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 0.0), 1.5);
}

TEST_F(EnvParsing, EmptyAndWhitespaceFallBack) {
  EXPECT_FALSE(common::parseInt(""));
  EXPECT_FALSE(common::parseInt("   "));
  set("");
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 2.5), 2.5);
  set("   ");
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 2.5), 2.5);
}

TEST_F(EnvParsing, TrailingGarbageFallsBack) {
  EXPECT_FALSE(common::parseInt("12abc"));
  EXPECT_FALSE(common::parseInt("0x")); // strtoll consumes "0", leaves "x"
  set("1.5.3");
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 2.5), 2.5);
  set("nanx");
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 2.5), 2.5);
}

TEST_F(EnvParsing, NotANumberFallsBack) {
  EXPECT_FALSE(common::parseInt("abc"));
  EXPECT_FALSE(common::parseInt("--3"));
  set("abc");
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 2.5), 2.5);
}

TEST_F(EnvParsing, OutOfRangeFallsBack) {
  EXPECT_FALSE(common::parseInt("99999999999999999999999999")); // > LLONG_MAX
  EXPECT_FALSE(common::parseInt("-99999999999999999999999999"));
  set("1e999999"); // > DBL_MAX
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 2.5), 2.5);
}

TEST_F(EnvParsing, FlagNormalization) {
  for (const char* falsy : {"", "0", "false", "FALSE", "off", "Off", "no"}) {
    set(falsy);
    EXPECT_FALSE(common::envFlag(kVar, true)) << "value: '" << falsy << "'";
  }
  for (const char* truthy : {"1", "true", "on", "yes", "whatever"}) {
    set(truthy);
    EXPECT_TRUE(common::envFlag(kVar, false)) << "value: '" << truthy << "'";
  }
}

TEST_F(EnvParsing, EmptyStringValueIsKept) {
  set("");
  EXPECT_EQ(common::envStr(kVar, "dflt"), "");
}

// Tool flags parse through the same strict parser as the knobs.
TEST(ParseCount, AcceptsOnlyWholeCountsTheTypeHolds) {
  EXPECT_EQ(common::parseCount<std::size_t>("10"), std::size_t(10));
  EXPECT_EQ(common::parseCount<std::uint32_t>(" 4 "), 4u);
  EXPECT_FALSE(common::parseCount<std::size_t>("abc"));
  EXPECT_FALSE(common::parseCount<std::uint32_t>("2x"));
  EXPECT_FALSE(common::parseCount<std::uint32_t>("-1"));
  EXPECT_FALSE(common::parseCount<std::uint32_t>("4294967296"));
  EXPECT_FALSE(common::parseCount<std::size_t>(""));
}

// The documented knob list (common/env.h, README) is the whole
// configuration surface: adding a knob means editing this set on purpose.
// Every "SKELCL_..." string literal in the library sources names a knob
// (read, or quoted in an error about its value).
TEST(EnvKnobInventory, SourcesReadExactlyTheDocumentedKnobs) {
  const std::set<std::string> expected = {
      "SKELCL_DEVICES",   "SKELCL_FUSION",        "SKELCL_ASYNC",
      "SKELCL_SERIALIZE", "SKELCL_SCHEDULE_SEED", "SKELCL_CACHE_DIR",
      "SKELCL_TRACE",     "SKELCL_FAULT_PLAN"};
  const std::string literal = "\"SKELCL_";
  const auto isNameChar = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
  };
  std::set<std::string> found;
  const std::filesystem::path src =
      std::filesystem::path(SKELCL_REPRO_SOURCE_DIR) / "src";
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(src)) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cpp") {
      continue;
    }
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    const std::string body = text.str();
    for (std::size_t at = body.find(literal); at != std::string::npos;
         at = body.find(literal, at + 1)) {
      std::size_t end = at + 1;
      while (end < body.size() && isNameChar(body[end])) {
        ++end;
      }
      found.insert(body.substr(at + 1, end - at - 1));
    }
  }
  EXPECT_EQ(found, expected);
}

} // namespace
