#include "reference.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

double reference_loop_seconds() {
  // Fixed integer, floating-point and L1-resident memory work, in the
  // simulator's proportions (RNG draws, a log per draw, table updates).
  // It lives in its own translation unit, built with the benchmark's flags,
  // so no change to the simulator can change it.
  static std::vector<std::uint64_t> table(1 << 14);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ULL;
  double acc = 0;
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = table[(x >> 7) & (table.size() - 1)];
    slot += x;
    acc += std::log(static_cast<double>((slot >> 11) | 1));
  }
  volatile double sink = acc;
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
