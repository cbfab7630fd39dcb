#include "sched/predict.hpp"

#include <algorithm>
#include <cmath>

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

HistoryPredictor::HistoryPredictor(std::size_t capacity,
                                   std::size_t neighbors)
    : capacity_(capacity == 0 ? 1 : capacity),
      neighbors_(neighbors == 0 ? 1 : neighbors) {}

void HistoryPredictor::observe(std::int32_t queue_length,
                               std::int64_t queued_work, std::int32_t count,
                               sim::Time wait) {
  window_.push_back(Observation{queue_length, queued_work, count, wait});
  while (window_.size() > capacity_) window_.pop_front();
}

void HistoryPredictor::train(
    const std::vector<BatchScheduler::WaitObservation>& history) {
  for (const auto& h : history) {
    observe(h.queue_length_at_submit, h.queued_work_at_submit, h.count,
            h.started_at - h.submitted_at);
  }
}

sim::Time HistoryPredictor::predict(const QueueSummary& summary,
                                    std::int32_t count) const {
  if (window_.empty()) return 0;
  // Distance in a normalized (queue length, queued work, count) space.
  const auto qlen = static_cast<double>(summary.queue_length);
  const auto qwork = static_cast<double>(summary.queued_work);
  struct Scored {
    double distance;
    sim::Time wait;
  };
  std::vector<Scored> scored;
  scored.reserve(window_.size());
  for (const Observation& o : window_) {
    const double dl = qlen - static_cast<double>(o.queue_length);
    const double dw =
        (qwork - static_cast<double>(o.queued_work)) /
        static_cast<double>(sim::kMinute);  // work in processor-minutes
    const double dc = static_cast<double>(count - o.count);
    scored.push_back(
        Scored{std::sqrt(dl * dl + dw * dw + 0.25 * dc * dc), o.wait});
  }
  const std::size_t k = std::min(neighbors_, scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(k),
                    scored.end(), [](const Scored& a, const Scored& b) {
                      return a.distance < b.distance;
                    });
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    sum += static_cast<double>(scored[i].wait);
  }
  return static_cast<sim::Time>(sum / static_cast<double>(k));
}

}  // namespace grid::sched
