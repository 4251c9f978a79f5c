// Uniform environment-variable parsing for the runtime's configuration
// knobs. There are 8: SKELCL_DEVICES, SKELCL_FUSION, SKELCL_ASYNC,
// SKELCL_SERIALIZE, SKELCL_SCHEDULE_SEED, SKELCL_CACHE_DIR, SKELCL_TRACE
// and SKELCL_FAULT_PLAN (tests/common/env_test.cpp pins this list).
//
// Flag semantics are normalized across every knob: an unset variable
// yields the fallback; "", "0", "false", "off" and "no" (case-
// insensitive) are false; every other value is true. Numbers are parsed
// strictly: empty or whitespace-only text, trailing garbage after the
// number ("12abc") and out-of-range magnitudes are unparsable, never a
// half-parsed or saturated value. An integer is read by parseInt, whose
// caller decides what unparsable text means (SKELCL_SCHEDULE_SEED
// rejects it); envDouble takes its fallback instead.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace common {

/// The one strict integer parser, for knobs and tool flags alike: a
/// decimal integer, optionally signed and surrounded by whitespace.
/// Empty text, trailing garbage ("2x") and out-of-range magnitudes give
/// nullopt.
std::optional<long long> parseInt(std::string_view text);

/// parseInt narrowed to an unsigned count type: nullopt also for a
/// negative value or one `T` cannot hold.
template <typename T>
std::optional<T> parseCount(std::string_view text) {
  const std::optional<long long> value = parseInt(text);
  if (!value || *value < 0 ||
      static_cast<unsigned long long>(*value) >
          std::numeric_limits<T>::max()) {
    return std::nullopt;
  }
  return static_cast<T>(*value);
}

/// Boolean knob with consistent 0/1/true/false handling (see above).
bool envFlag(const char* name, bool fallback = false);

/// Floating-point knob; returns `fallback` when unset or not a number.
double envDouble(const char* name, double fallback);

/// String knob; returns `fallback` when unset (an empty value is kept).
std::string envStr(const char* name, const std::string& fallback = "");

} // namespace common
