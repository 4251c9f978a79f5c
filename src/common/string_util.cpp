#include "common/string_util.h"

#include <cctype>

namespace common {

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

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(s.substr(start));
      return parts;
    }
    parts.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

bool startsWith(std::string_view s, std::string_view prefix) noexcept {
  return s.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string replaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  std::string out;
  out.reserve(s.size());
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(from, start);
    if (pos == std::string_view::npos || from.empty()) {
      out.append(s.substr(start));
      return out;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out.append(sep);
    }
    out.append(parts[i]);
  }
  return out;
}

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
