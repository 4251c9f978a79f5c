// Small string helpers shared by the clc front end, SkelCL's source-merge
// code generator, and the LoC counter used by the benchmark harnesses.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace common {

std::string_view trim(std::string_view s) noexcept;
std::vector<std::string> split(std::string_view s, char sep);
bool startsWith(std::string_view s, std::string_view prefix) noexcept;
bool endsWith(std::string_view s, std::string_view suffix) noexcept;
std::string replaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// Joins parts with the given separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Counts non-blank, non-comment-only lines of C/C++ source. This is the
/// single LoC metric used for every "program size" figure we reproduce,
/// applied uniformly to all implementations (Figs. 1 and 2 of the paper).
std::size_t countLinesOfCode(std::string_view source);

} // namespace common
