// Wall-clock stopwatch for host-side measurements (kernel build vs cache
// load, benchmark wall time next to the simulator's virtual time).
#pragma once

#include <chrono>

namespace common {

class Stopwatch {
public:
  Stopwatch() noexcept : start_(Clock::now()) {}

  double elapsedSeconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

} // namespace common
