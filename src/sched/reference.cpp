#include "sched/reference.hpp"

#include <algorithm>
#include <utility>

namespace grid::sched {

ReferenceBackfill::ReferenceBackfill(sim::Engine& engine,
                                     std::int32_t processors,
                                     Backfill backfill)
    : engine_(&engine),
      total_(processors),
      free_(processors),
      backfill_(backfill) {}

util::Status ReferenceBackfill::submit(const JobDescriptor& job,
                                       StartFn on_start, EndFn on_end) {
  if (job.count < 1) {
    return {util::ErrorCode::kInvalidArgument, "count must be >= 1"};
  }
  if (job.count > total_) {
    return {util::ErrorCode::kResourceExhausted,
            "job needs " + std::to_string(job.count) + " processors, machine has " +
                std::to_string(total_)};
  }
  if (job.id == 0) {
    return {util::ErrorCode::kInvalidArgument, "job id 0 is reserved"};
  }
  if (running_.find(job.id) != nullptr) {
    return {util::ErrorCode::kInvalidArgument, "duplicate job id"};
  }
  for (const Queued& entry : queue_) {  // the O(n) scan the IdMap replaced
    if (entry.desc.id == job.id) {
      return {util::ErrorCode::kInvalidArgument, "duplicate job id"};
    }
  }
  Queued q;
  q.desc = job;
  q.on_start = std::move(on_start);
  q.on_end = std::move(on_end);
  q.submitted_at = engine_->now();
  queue_.push_back(std::move(q));
  try_schedule();
  return util::Status::ok();
}

sim::Time ReferenceBackfill::estimated_end(const JobDescriptor& d,
                                           sim::Time started) const {
  sim::Time length = 0;
  if (d.estimated_runtime > 0) {
    length = d.estimated_runtime;
  } else if (d.runtime > 0) {
    length = d.runtime;
  } else if (d.max_wall_time > 0) {
    length = d.max_wall_time;
  } else {
    return sim::kTimeNever;
  }
  if (length >= sim::kTimeNever - started) return sim::kTimeNever;
  return started + length;
}

void ReferenceBackfill::try_schedule() {
  if (scheduling_) return;
  scheduling_ = true;
  for (;;) {
    // FCFS: start head jobs while they fit.
    if (!queue_.empty() && queue_.front().desc.count <= free_) {
      Queued q = std::move(queue_.front());
      queue_.pop_front();
      start(std::move(q));
      continue;
    }
    break;
  }
  if (backfill_ == Backfill::kEasy && !queue_.empty()) {
    const sim::Time now = engine_->now();
    const std::int32_t head_count = queue_.front().desc.count;
    // Shadow state by direct simulation: release estimated ends in time
    // order (whole tie groups at once) until the head job fits.  Expired
    // estimates count as available immediately, so the shadow is never in
    // the past.
    std::int32_t avail = free_;
    std::vector<std::pair<sim::Time, std::int32_t>> ends;
    ends.reserve(running_.size());
    running_.for_each([&](JobId, const Running& r) {
      if (r.est_end <= now) {
        avail += r.desc.count;
      } else {
        ends.emplace_back(r.est_end, r.desc.count);
      }
    });
    std::sort(ends.begin(), ends.end());
    sim::Time shadow = sim::kTimeNever;
    std::int32_t extra = 0;
    if (avail >= head_count) {
      shadow = now;
      extra = avail - head_count;
    } else {
      for (std::size_t i = 0; i < ends.size();) {
        const sim::Time group_end = ends[i].first;
        for (; i < ends.size() && ends[i].first == group_end; ++i) {
          avail += ends[i].second;
        }
        if (avail >= head_count) {
          shadow = group_end;
          extra = avail - head_count;
          break;
        }
      }
    }
    // Backfill scan, restarted from the front after every start (the seed
    // loop shape).  Shadow and extra stay frozen for the whole pass.
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 1; i < queue_.size(); ++i) {
        Queued& cand = queue_[i];
        if (cand.desc.count > free_) continue;
        const sim::Time est = cand.desc.estimated_runtime > 0
                                  ? cand.desc.estimated_runtime
                                  : cand.desc.runtime;
        const bool ends_before_shadow =
            shadow != sim::kTimeNever && est > 0 && now + est <= shadow;
        const bool within_extra = cand.desc.count <= extra;
        if (!ends_before_shadow && !within_extra) continue;
        if (!ends_before_shadow) extra -= cand.desc.count;
        Queued q = std::move(cand);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        start(std::move(q));
        progress = true;
        break;
      }
    }
  }
  scheduling_ = false;
}

void ReferenceBackfill::start(Queued&& q) {
  free_ -= q.desc.count;
  Running r;
  r.desc = q.desc;
  r.on_end = std::move(q.on_end);
  r.started_at = engine_->now();
  r.est_end = estimated_end(r.desc, r.started_at);
  const JobId id = q.desc.id;
  Running& slot = running_.emplace(id, std::move(r));
  if (slot.desc.runtime > 0) {
    slot.runtime_event = engine_->schedule_after(
        slot.desc.runtime,
        [this, id] { end_running(id, EndReason::kCompleted); });
  }
  if (slot.desc.max_wall_time > 0) {
    slot.wall_event = engine_->schedule_after(slot.desc.max_wall_time, [this, id] {
      end_running(id, EndReason::kWallTimeExceeded);
    });
  }
  if (q.on_start) q.on_start(id);
}

void ReferenceBackfill::end_running(JobId id, EndReason reason) {
  Running* found = running_.find(id);
  if (found == nullptr) return;
  Running r = std::move(*found);
  running_.erase(id);
  engine_->cancel(r.runtime_event);
  engine_->cancel(r.wall_event);
  free_ += r.desc.count;
  if (r.on_end) r.on_end(id, reason);
  try_schedule();
}

void ReferenceBackfill::complete(JobId id) {
  end_running(id, EndReason::kCompleted);
}

bool ReferenceBackfill::cancel(JobId id) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->desc.id == id) {
      Queued q = std::move(*it);
      queue_.erase(it);
      if (q.on_end) q.on_end(id, EndReason::kCancelled);
      try_schedule();
      return true;
    }
  }
  if (running_.find(id) != nullptr) {
    end_running(id, EndReason::kCancelled);
    return true;
  }
  return false;
}

QueueSnapshot ReferenceBackfill::snapshot() const {
  QueueSnapshot s;
  s.taken_at = engine_->now();
  s.total_processors = total_;
  s.busy_processors = total_ - free_;
  s.queued.reserve(queue_.size());
  for (const Queued& q : queue_) {
    s.queued.push_back(QueuedJobInfo{q.desc.id, q.desc.count,
                                     q.desc.estimated_runtime,
                                     q.submitted_at});
  }
  return s;
}

}  // namespace grid::sched
