// Error paths of the env-var parsers: every malformed value must take
// the documented fallback, never a half-parsed or saturated number.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
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
  EXPECT_EQ(common::envInt(kVar, 7), 7);
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 2.5), 2.5);
  EXPECT_EQ(common::envStr(kVar, "dflt"), "dflt");
  EXPECT_TRUE(common::envFlag(kVar, true));
  EXPECT_FALSE(common::envFlag(kVar, false));
}

TEST_F(EnvParsing, ValidValuesParse) {
  set("42");
  EXPECT_EQ(common::envInt(kVar, 7), 42);
  set("-3");
  EXPECT_EQ(common::envInt(kVar, 7), -3);
  set("1.5");
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 0.0), 1.5);
  set("  12  "); // surrounding whitespace is fine
  EXPECT_EQ(common::envInt(kVar, 7), 12);
}

TEST_F(EnvParsing, EmptyAndWhitespaceFallBack) {
  set("");
  EXPECT_EQ(common::envInt(kVar, 7), 7);
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 2.5), 2.5);
  set("   ");
  EXPECT_EQ(common::envInt(kVar, 7), 7);
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 2.5), 2.5);
}

TEST_F(EnvParsing, TrailingGarbageFallsBack) {
  set("12abc");
  EXPECT_EQ(common::envInt(kVar, 7), 7);
  set("1.5.3");
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 2.5), 2.5);
  set("0x"); // strtoll consumes "0", leaves "x"
  EXPECT_EQ(common::envInt(kVar, 7), 7);
  set("nanx");
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 2.5), 2.5);
}

TEST_F(EnvParsing, NotANumberFallsBack) {
  set("abc");
  EXPECT_EQ(common::envInt(kVar, 7), 7);
  EXPECT_DOUBLE_EQ(common::envDouble(kVar, 2.5), 2.5);
  set("--3");
  EXPECT_EQ(common::envInt(kVar, 7), 7);
}

TEST_F(EnvParsing, OutOfRangeFallsBack) {
  set("99999999999999999999999999"); // > LLONG_MAX
  EXPECT_EQ(common::envInt(kVar, 7), 7);
  set("-99999999999999999999999999");
  EXPECT_EQ(common::envInt(kVar, 7), 7);
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
TEST(EnvKnobInventory, SourcesReadExactlyTheDocumentedKnobs) {
  const std::set<std::string> expected = {
      "SKELCL_DEVICES",   "SKELCL_FUSION",        "SKELCL_ASYNC",
      "SKELCL_SERIALIZE", "SKELCL_SCHEDULE_SEED", "SKELCL_CACHE_DIR",
      "SKELCL_TRACE",     "SKELCL_FAULT_PLAN"};
  const std::regex read(
      R"re((?:env(?:Flag|Int|Double|Str)|getenv)\(\s*"(SKELCL_[A-Z0-9_]*)")re");
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
    for (std::sregex_iterator it(body.begin(), body.end(), read), end;
         it != end; ++it) {
      found.insert((*it)[1].str());
    }
  }
  EXPECT_EQ(found, expected);
}

} // namespace
