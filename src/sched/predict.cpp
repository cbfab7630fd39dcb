#include "sched/predict.hpp"

namespace grid::sched {

AggregateWorkPredictor::AggregateWorkPredictor(sim::Time mean_job_runtime)
    : mean_job_runtime_(mean_job_runtime) {}

sim::Time AggregateWorkPredictor::predict(const QueueSummary& summary,
                                          std::int32_t count) const {
  if (summary.total_processors <= 0) return 0;
  if (summary.queue_length == 0 && count <= summary.free_processors()) {
    return 0;
  }
  // Queued work drains across the whole machine; a busy machine adds the
  // expected residual of the jobs occupying it.
  const double machine = static_cast<double>(summary.total_processors);
  const double drain = static_cast<double>(summary.queued_work) / machine;
  const double residual =
      static_cast<double>(summary.busy_processors) / machine *
      static_cast<double>(mean_job_runtime_) / 2.0;
  return static_cast<sim::Time>(drain + residual);
}

}  // namespace grid::sched
