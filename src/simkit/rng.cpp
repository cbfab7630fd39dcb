#include "simkit/rng.hpp"

#include <cmath>

namespace grid::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Expand the seed through splitmix64 per the xoshiro authors' advice.
  for (auto& s : s_) s = splitmix64(seed);
}

Rng Rng::fork() { return Rng(next_u64()); }

std::uint64_t Rng::next_u64() {
  // xoshiro256** step.
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo >= hi) return lo;
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  // Rejection sampling for an unbiased draw.
  const std::uint64_t limit =
      range == 0 ? 0 : std::numeric_limits<std::uint64_t>::max() -
                           std::numeric_limits<std::uint64_t>::max() % range;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (range != 0 && v >= limit);
  return lo + static_cast<std::int64_t>(range == 0 ? v : v % range);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::exponential(double mean) {
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

Time Rng::uniform_time(Time lo, Time hi) { return uniform_int(lo, hi); }

Time Rng::exponential_time(Time mean) {
  if (mean <= 0) return 0;
  return static_cast<Time>(exponential(static_cast<double>(mean)));
}

}  // namespace grid::sim
