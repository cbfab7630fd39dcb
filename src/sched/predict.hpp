// Queue-wait prediction (paper §2.2).
//
// "The resource management system can publish ... forecasts (based, for
// example, on queue time prediction algorithms [9, 26]) of expected future
// resource availability."  Two predictors are provided:
//
//  * AggregateWorkPredictor — deterministic estimate from the published
//    queue summary: queued processor-work divided by machine width
//    (a Downey-style aggregate bound [9]).
//  * HistoryPredictor — Smith/Foster/Taylor-style [26]: remembers
//    (queue state, observed wait) pairs and predicts the mean wait of the
//    most similar historical states.
#pragma once

#include <cstdint>
#include <deque>

#include "sched/batch.hpp"
#include "sched/scheduler.hpp"

namespace grid::sched {

class WaitPredictor {
 public:
  virtual ~WaitPredictor() = default;

  /// Predicted queue wait for a newly submitted job asking for `count`
  /// processors, given the published aggregates of the target queue.
  /// Predictors read nothing but aggregates; rank a full snapshot with
  /// `predict(summarize(snapshot), count)`.
  virtual sim::Time predict(const QueueSummary& summary,
                            std::int32_t count) const = 0;
};

/// Deterministic aggregate bound: remaining queued work spread over the
/// machine, plus a term for how full the machine currently is.
class AggregateWorkPredictor final : public WaitPredictor {
 public:
  /// `mean_job_runtime` calibrates the drain time of currently-busy
  /// processors when the queue carries no estimates.
  explicit AggregateWorkPredictor(sim::Time mean_job_runtime = sim::kMinute);

  sim::Time predict(const QueueSummary& summary,
                    std::int32_t count) const override;

 private:
  sim::Time mean_job_runtime_;
};

/// Instance-based predictor trained on observed (state, wait) pairs.
class HistoryPredictor final : public WaitPredictor {
 public:
  /// Keeps at most `capacity` most recent observations.
  explicit HistoryPredictor(std::size_t capacity = 512,
                            std::size_t neighbors = 8);

  /// Records an observed wait under the queue state at submission time.
  void observe(std::int32_t queue_length, std::int64_t queued_work,
               std::int32_t count, sim::Time wait);

  /// Imports a batch scheduler's accumulated wait history.
  void train(const std::vector<BatchScheduler::WaitObservation>& history);

  sim::Time predict(const QueueSummary& summary,
                    std::int32_t count) const override;

  std::size_t observation_count() const { return window_.size(); }

 private:
  struct Observation {
    std::int32_t queue_length;
    std::int64_t queued_work;
    std::int32_t count;
    sim::Time wait;
  };
  std::size_t capacity_;
  std::size_t neighbors_;
  std::deque<Observation> window_;
};

}  // namespace grid::sched
