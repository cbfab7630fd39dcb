// Deterministic random number generation for simulations.
//
// Wraps a xoshiro256** generator with the distribution helpers the
// experiments need.  Every simulated component that needs randomness takes a
// seeded Rng (or forks one from a parent) so experiment runs replay exactly.
#pragma once

#include <cstdint>
#include <limits>

#include "simkit/annotate.hpp"
#include "simkit/time.hpp"

namespace grid::sim {

class GRID_HOT Rng {
 public:
  /// Seeds the generator; equal seeds produce equal streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derives an independent child stream; used to give each simulated host
  /// its own generator without correlating their draws.
  Rng fork();

  /// Uniform 64-bit draw.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Uniform duration in [lo, hi] inclusive.
  Time uniform_time(Time lo, Time hi);

  /// Exponentially distributed duration with the given mean.
  Time exponential_time(Time mean);

 private:
  std::uint64_t s_[4];
};

}  // namespace grid::sim
