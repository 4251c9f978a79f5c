#include "common/string_util.h"

#include <cctype>
#include <string>

namespace common {

namespace {

std::string_view trim(std::string_view s) noexcept {
  const auto isSpace = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!s.empty() && isSpace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && isSpace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

} // namespace

std::size_t countLinesOfCode(std::string_view source) {
  std::size_t loc = 0;
  bool inBlockComment = false;
  std::size_t lineStart = 0;
  const auto countLine = [&](std::string_view line) {
    // Strip comments while respecting the running block-comment state.
    std::string code;
    std::size_t i = 0;
    bool inString = false;
    char stringDelim = '"';
    while (i < line.size()) {
      const char c = line[i];
      const char next = i + 1 < line.size() ? line[i + 1] : '\0';
      if (inBlockComment) {
        if (c == '*' && next == '/') {
          inBlockComment = false;
          i += 2;
          continue;
        }
        ++i;
        continue;
      }
      if (inString) {
        code.push_back(c);
        if (c == '\\' && i + 1 < line.size()) {
          code.push_back(next);
          i += 2;
          continue;
        }
        if (c == stringDelim) {
          inString = false;
        }
        ++i;
        continue;
      }
      if (c == '/' && next == '/') {
        break; // Rest of the line is a comment.
      }
      if (c == '/' && next == '*') {
        inBlockComment = true;
        i += 2;
        continue;
      }
      if (c == '"' || c == '\'') {
        inString = true;
        stringDelim = c;
      }
      code.push_back(c);
      ++i;
    }
    if (!trim(code).empty()) {
      ++loc;
    }
  };

  for (std::size_t i = 0; i <= source.size(); ++i) {
    if (i == source.size() || source[i] == '\n') {
      countLine(source.substr(lineStart, i - lineStart));
      lineStart = i + 1;
    }
  }
  return loc;
}

} // namespace common
