#include "net/retry.hpp"

namespace grid::net {
namespace {

/// splitmix64 finalizer: decorrelates the per-call stream id from the
/// policy seed so consecutive stream ids do not produce related streams.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

RetrySchedule::RetrySchedule(const RetryPolicy& policy, std::uint64_t stream)
    : rng_(policy.jitter_seed ^ mix(stream)) {}

sim::Time RetrySchedule::backoff_before(int attempt) {
  if (attempt < 2) return 0;
  double delay = static_cast<double>(kRetryInitialBackoff);
  for (int i = 2; i < attempt; ++i) delay *= 2.0;
  delay *= rng_.uniform(1.0 - kRetryJitter, 1.0 + kRetryJitter);
  return static_cast<sim::Time>(delay);
}

}  // namespace grid::net
