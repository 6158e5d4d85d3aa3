#include "bench.hpp"

namespace perfbench {

Load::Load(std::uint64_t seed, std::uint64_t stream)
    : state_(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
             0x2545F4914F6CDD1DULL) {}

std::uint64_t Load::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Load::uniform(double lo, double hi) {
  const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

std::uint64_t Load::below(std::uint64_t n) { return next() % n; }

}  // namespace perfbench
