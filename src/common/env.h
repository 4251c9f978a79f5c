// Uniform environment-variable parsing for the runtime's configuration
// knobs. There are 9: SKELCL_DEVICES, SKELCL_FUSION, SKELCL_ASYNC,
// SKELCL_SERIALIZE, SKELCL_SCHEDULE_SEED, SKELCL_CACHE_DIR, SKELCL_TRACE,
// SKELCL_FAULT_PLAN and SKELCL_FAULT_SEED (tests/common/env_test.cpp
// pins this list).
//
// Flag semantics are normalized across every knob: an unset variable
// yields the fallback; "", "0", "false", "off" and "no" (case-
// insensitive) are false; every other value is true. Numeric helpers
// fall back on unset *or unparsable* values, so a typo degrades to the
// documented default instead of silently becoming zero. "Unparsable"
// is strict: empty or whitespace-only values, trailing garbage after
// the number ("12abc"), and out-of-range magnitudes all take the
// fallback rather than a half-parsed or saturated value.
#pragma once

#include <string>

namespace common {

/// Boolean knob with consistent 0/1/true/false handling (see above).
bool envFlag(const char* name, bool fallback = false);

/// Integer knob; returns `fallback` when unset or not a number.
long long envInt(const char* name, long long fallback);

/// Floating-point knob; returns `fallback` when unset or not a number.
double envDouble(const char* name, double fallback);

/// String knob; returns `fallback` when unset (an empty value is kept).
std::string envStr(const char* name, const std::string& fallback = "");

} // namespace common
