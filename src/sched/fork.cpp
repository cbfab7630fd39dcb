#include "sched/fork.hpp"

namespace grid::sched {

ForkScheduler::ForkScheduler(sim::Engine& engine,
                             sim::Time fork_cost_per_process,
                             std::int32_t nominal_processors)
    : engine_(&engine),
      fork_cost_(fork_cost_per_process),
      nominal_(nominal_processors) {}

util::Status ForkScheduler::submit(const JobDescriptor& job, StartFn on_start,
                                   EndFn on_end) {
  util::Status admitted = admit(job, kTimeshared, [this](JobId id) {
    return jobs_.find(id) != nullptr;
  });
  if (!admitted.is_ok()) return admitted;
  Running r;
  r.desc = job;
  r.on_end = std::move(on_end);
  const sim::Time delay = fork_cost_ * job.count;
  Running& slot = jobs_.emplace(job.id, std::move(r));
  slot.start_event = engine_->schedule_after(
      delay, [this, id = job.id, on_start = std::move(on_start)] {
        start_job(id, on_start);
      });
  return util::Status::ok();
}

void ForkScheduler::start_job(JobId id, StartFn on_start) {
  Running* found = jobs_.find(id);
  if (found == nullptr) return;
  Running& r = *found;
  r.started = true;
  running_count_ += r.desc.count;
  ++version_;
  r.timers.arm(*engine_, r.desc,
               [this, id](EndReason why) { end_job(id, why); });
  if (on_start) on_start(id);
}

void ForkScheduler::end_job(JobId id, EndReason reason) {
  Running* found = jobs_.find(id);
  if (found == nullptr) return;
  Running r = std::move(*found);
  jobs_.erase(id);
  engine_->cancel(r.start_event);
  r.timers.cancel(*engine_);
  if (r.started) running_count_ -= r.desc.count;
  ++version_;
  if (r.on_end) r.on_end(id, reason);
}

void ForkScheduler::complete(JobId id) { end_job(id, EndReason::kCompleted); }

bool ForkScheduler::cancel(JobId id) {
  if (jobs_.find(id) == nullptr) return false;
  end_job(id, EndReason::kCancelled);
  return true;
}

QueueSnapshot ForkScheduler::snapshot() const {
  QueueSnapshot s;
  s.taken_at = engine_->now();
  s.total_processors = total_processors();
  s.busy_processors = running_count_;
  return s;
}

QueueSummary ForkScheduler::summary() const {
  QueueSummary s;
  s.taken_at = engine_->now();
  s.total_processors = total_processors();
  s.busy_processors = running_count_;
  return s;
}

}  // namespace grid::sched
