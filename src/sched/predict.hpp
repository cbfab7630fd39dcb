// Queue-wait prediction (paper §2.2).
//
// "The resource management system can publish ... forecasts (based, for
// example, on queue time prediction algorithms [9, 26]) of expected future
// resource availability."  AggregateWorkPredictor is a deterministic
// estimate from the published queue summary: queued processor-work divided
// by machine width (a Downey-style aggregate bound [9]).
#pragma once

#include <cstdint>

#include "sched/scheduler.hpp"

namespace grid::sched {

/// Deterministic aggregate bound: remaining queued work spread over the
/// machine, plus a term for how full the machine currently is.
class AggregateWorkPredictor {
 public:
  /// `mean_job_runtime` calibrates the drain time of currently-busy
  /// processors when the queue carries no estimates.
  explicit AggregateWorkPredictor(sim::Time mean_job_runtime = sim::kMinute);

  /// Predicted queue wait for a newly submitted job asking for `count`
  /// processors, given the published aggregates of the target queue.
  /// Rank a full snapshot with `predict(summarize(snapshot), count)`.
  sim::Time predict(const QueueSummary& summary, std::int32_t count) const;

 private:
  sim::Time mean_job_runtime_;
};

}  // namespace grid::sched
