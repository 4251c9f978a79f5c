#include "clc/diag.h"

#include <sstream>

namespace clc {

std::string CompileError::format(const std::string& message, SourceLoc loc) {
  std::ostringstream out;
  if (loc.valid()) {
    out << loc.line << ":" << loc.column << ": ";
  }
  out << "error: " << message;
  return out.str();
}

std::string renderContext(const std::string& source, SourceLoc loc,
                          const std::string& message) {
  std::ostringstream out;
  out << (loc.valid() ? std::to_string(loc.line) + ":" +
                            std::to_string(loc.column) + ": "
                      : std::string())
      << "error: " << message << "\n";
  if (!loc.valid()) {
    return out.str();
  }
  // Find the loc.line-th line of the source.
  int line = 1;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= source.size(); ++i) {
    if (i == source.size() || source[i] == '\n') {
      if (line == loc.line) {
        out << source.substr(start, i - start) << "\n";
        for (int c = 1; c < loc.column; ++c) {
          out << ' ';
        }
        out << "^\n";
        break;
      }
      ++line;
      start = i + 1;
    }
  }
  return out.str();
}

} // namespace clc
