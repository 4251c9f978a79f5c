// The LoC counter used by the benchmark harnesses.
#pragma once

#include <cstddef>
#include <string_view>

namespace common {

/// Counts non-blank, non-comment-only lines of C/C++ source. This is the
/// single LoC metric used for every "program size" figure we reproduce,
/// applied uniformly to all implementations (Figs. 1 and 2 of the paper).
std::size_t countLinesOfCode(std::string_view source);

} // namespace common
