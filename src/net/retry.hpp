// Retry schedule for idempotent RPC calls.
//
// The network drops messages silently (crashes, partitions, injected
// loss), so every lost request or reply surfaces as kTimeout at the RPC
// layer.  gram::Client's retry loop turns that one-shot failure surface
// into a bounded, deterministic schedule: up to kRetryAttempts attempts,
// separated by a backoff that starts at kRetryInitialBackoff, doubles
// before each further attempt and is scaled by seeded jitter.  Only
// idempotent operations are retried (cancel verbs, GSI handshakes) —
// re-issuing a non-idempotent request whose reply was lost duplicates its
// effect.
#pragma once

#include <cstdint>

#include "simkit/annotate.hpp"
#include "simkit/rng.hpp"
#include "simkit/time.hpp"

namespace grid::net {

/// Total attempts of a retrying call, including the first.
inline constexpr int kRetryAttempts = 4;
/// Timeout of each attempt of a retried call (a handshake keeps its own).
inline constexpr sim::Time kRetryAttemptTimeout = 3 * sim::kSecond;
/// Backoff before the second attempt; doubles before each further one.
inline constexpr sim::Time kRetryInitialBackoff = 200 * sim::kMillisecond;
/// Each backoff is scaled by a uniform draw from [1-kRetryJitter,
/// 1+kRetryJitter].
inline constexpr double kRetryJitter = 0.2;

struct RetryPolicy {
  /// Seeds the jitter draws together with the per-call stream id, so equal
  /// seeds replay identical schedules.
  std::uint64_t jitter_seed = 0x5eedbac0ffULL;
};

/// The materialized backoff schedule of one retrying call.  Draws jitter
/// from its own RNG stream, so two schedules with equal (policy, stream)
/// produce identical delays regardless of what else the simulation does.
class GRID_HOT RetrySchedule {
 public:
  RetrySchedule(const RetryPolicy& policy, std::uint64_t stream);

  /// Backoff to wait before attempt `attempt` (2-based: the first retry).
  /// Call with consecutive attempt numbers to stay on the jitter stream.
  sim::Time backoff_before(int attempt);

 private:
  sim::Rng rng_;
};

}  // namespace grid::net
