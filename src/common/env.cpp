#include "common/env.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace common {

namespace {

std::string lowered(const char* value) {
  std::string s(value);
  for (char& c : s) {
    c = char(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

/// True when `rest` holds nothing but whitespace — the only thing allowed
/// to trail a numeric value. "12abc" or "1.5.3" fall back to the default
/// instead of being silently half-parsed.
bool onlyWhitespace(const char* rest) {
  while (*rest != '\0') {
    if (!std::isspace(static_cast<unsigned char>(*rest))) {
      return false;
    }
    ++rest;
  }
  return true;
}

} // namespace

bool envFlag(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) {
    return fallback;
  }
  const std::string v = lowered(value);
  return !(v.empty() || v == "0" || v == "false" || v == "off" || v == "no");
}

std::optional<long long> parseInt(std::string_view text) {
  const std::string value(text);
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || errno == ERANGE || !onlyWhitespace(end)) {
    return std::nullopt;
  }
  return parsed;
}

double envDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (end == value || errno == ERANGE || !onlyWhitespace(end)) {
    return fallback;
  }
  return parsed;
}

std::string envStr(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::string(value);
}

} // namespace common
