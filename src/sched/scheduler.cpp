#include "sched/scheduler.hpp"

namespace grid::sched {

std::int64_t QueueSnapshot::queued_work() const {
  std::int64_t total = 0;
  for (const QueuedJobInfo& j : queued) {
    total += static_cast<std::int64_t>(j.count) * j.estimated_runtime;
  }
  return total;
}

QueueSummary summarize(const QueueSnapshot& snapshot) {
  QueueSummary s;
  s.taken_at = snapshot.taken_at;
  s.total_processors = snapshot.total_processors;
  s.busy_processors = snapshot.busy_processors;
  s.queue_length = static_cast<std::uint32_t>(snapshot.queued.size());
  s.queued_work = snapshot.queued_work();
  return s;
}

util::Status admit(const JobDescriptor& job, std::int32_t machine,
                   HoldsFn holds) {
  if (job.count < 1) {
    return {util::ErrorCode::kInvalidArgument, "count must be >= 1"};
  }
  if (job.count > machine) {
    return {util::ErrorCode::kResourceExhausted,
            "job needs " + std::to_string(job.count) +
                " processors, machine has " + std::to_string(machine)};
  }
  if (job.id == 0) {
    return {util::ErrorCode::kInvalidArgument, "job id 0 is reserved"};
  }
  if (holds(job.id)) {
    return {util::ErrorCode::kInvalidArgument, "duplicate job id"};
  }
  return util::Status::ok();
}

}  // namespace grid::sched
