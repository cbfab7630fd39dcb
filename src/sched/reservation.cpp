#include "sched/reservation.hpp"

#include <algorithm>

namespace grid::sched {
namespace {

/// Assumed run length of a job that plans none.
constexpr sim::Time kDefaultEstimate = sim::kHour;

/// When a best-effort job started at `now` is planned to end.
sim::Time estimated_end(const JobDescriptor& d, sim::Time now) {
  const sim::Time length = planned_length(d);
  return planned_end(now, length > 0 ? length : kDefaultEstimate);
}

}  // namespace

ReservationScheduler::ReservationScheduler(sim::Engine& engine,
                                           std::int32_t processors)
    : engine_(&engine), total_(processors), res_(processors),
      commit_(processors) {}

std::int32_t ReservationScheduler::reserved_at(sim::Time t) const {
  // Public bookkeeping query, exact for any t including the past; the
  // decision paths read the profiles instead.
  std::int32_t sum = 0;
  for (const Reservation& r : reservations_) {
    if (r.start <= t && t < r.end) sum += r.count;
  }
  return sum;
}

util::Result<Reservation> ReservationScheduler::reserve(sim::Time start,
                                                        sim::Time end,
                                                        std::int32_t count) {
  const sim::Time now = engine_->now();
  if (start < now) start = now;
  if (end <= start) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "reservation window is empty");
  }
  if (count < 1 || count > total_) {
    return util::Status(util::ErrorCode::kResourceExhausted,
                        "reservation for " + std::to_string(count) +
                            " processors on a " + std::to_string(total_) +
                            "-processor machine");
  }
  // Admission: everywhere in the window, existing reservations plus the
  // estimated tail of running best-effort work plus this reservation must
  // fit the machine.  The committed-load profile answers that as a single
  // range minimum.
  if (count > commit_.min_free_over(start, end)) {
    return util::Status(util::ErrorCode::kResourceExhausted,
                        "reservation window conflicts with existing load");
  }
  Reservation r;
  r.id = next_reservation_++;
  r.start = start;
  r.end = end;
  r.count = count;
  reservations_.push_back(r);
  res_.reserve(start, end, count);
  commit_.reserve(start, end, count);
  // Window-start: start any bound jobs; window-end: reclaim and kill.  The
  // profile occupancies simply elapse at window end — nothing to return.
  engine_->schedule_at(start, [this] { try_schedule(); });
  engine_->schedule_at(end, [this, rid = r.id] {
    std::vector<JobId> to_kill;
    running_.for_each([&](JobId jid, const Running& run) {
      if (run.reservation == rid) to_kill.push_back(jid);
    });
    for (JobId jid : to_kill) end_running(jid, EndReason::kWallTimeExceeded);
    std::erase_if(reservations_,
                  [rid](const Reservation& x) { return x.id == rid; });
    try_schedule();
  });
  return r;
}

bool ReservationScheduler::cancel_reservation(ReservationId id) {
  const auto it =
      std::find_if(reservations_.begin(), reservations_.end(),
                   [id](const Reservation& r) { return r.id == id; });
  if (it == reservations_.end()) return false;
  // Return the un-elapsed remainder of the window to both profiles.
  const sim::Time from = std::max(engine_->now(), it->start);
  if (from < it->end) {
    res_.release(from, it->end, it->count);
    commit_.release(from, it->end, it->count);
  }
  reservations_.erase(it);
  try_schedule();
  return true;
}

util::Status ReservationScheduler::admit_job(const JobDescriptor& job) const {
  return admit(job, total_, [this](JobId id) {
    return running_.find(id) != nullptr ||
           std::any_of(queue_.begin(), queue_.end(),
                       [id](const Queued& q) { return q.desc.id == id; });
  });
}

void ReservationScheduler::enqueue(const JobDescriptor& job,
                                   ReservationId reservation, StartFn on_start,
                                   EndFn on_end) {
  Queued q;
  q.desc = job;
  q.on_start = std::move(on_start);
  q.on_end = std::move(on_end);
  q.submitted_at = engine_->now();
  q.reservation = reservation;
  queued_work_ +=
      static_cast<std::int64_t>(job.count) * job.estimated_runtime;
  queue_.push_back(std::move(q));
  ++version_;
  try_schedule();
}

util::Status ReservationScheduler::submit_reserved(const JobDescriptor& job,
                                                   ReservationId rid,
                                                   StartFn on_start,
                                                   EndFn on_end) {
  util::Status admitted = admit_job(job);
  if (!admitted.is_ok()) return admitted;
  auto it = std::find_if(reservations_.begin(), reservations_.end(),
                         [rid](const Reservation& r) { return r.id == rid; });
  if (it == reservations_.end()) {
    return {util::ErrorCode::kNotFound, "unknown reservation"};
  }
  // The window holds `count` processors for every job bound to it, so the
  // jobs still queued or running against it share them with this one.
  std::int32_t bound = job.count;
  for (const Queued& q : queue_) {
    if (q.reservation == rid) bound += q.desc.count;
  }
  running_.for_each([&](JobId, const Running& r) {
    if (r.reservation == rid) bound += r.desc.count;
  });
  if (bound > it->count) {
    return {util::ErrorCode::kResourceExhausted,
            "job exceeds reservation capacity"};
  }
  enqueue(job, rid, std::move(on_start), std::move(on_end));
  return util::Status::ok();
}

util::Status ReservationScheduler::submit(const JobDescriptor& job,
                                          StartFn on_start, EndFn on_end) {
  util::Status admitted = admit_job(job);
  if (!admitted.is_ok()) return admitted;
  enqueue(job, 0, std::move(on_start), std::move(on_end));
  return util::Status::ok();
}

void ReservationScheduler::try_schedule() {
  if (scheduling_) return;
  scheduling_ = true;
  const sim::Time now = engine_->now();
  res_.advance_to(now);
  commit_.advance_to(now);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    // Pass 1: reservation-bound jobs run in capacity that was blocked at
    // admission time, so they start the moment their window opens — they
    // are never gated behind the best-effort FCFS head.
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      Queued& q = queue_[i];
      if (q.reservation == 0) continue;
      auto it = std::find_if(
          reservations_.begin(), reservations_.end(),
          [&](const Reservation& r) { return r.id == q.reservation; });
      if (it == reservations_.end()) {
        // Reservation expired or cancelled before the job could start.
        Queued dead = std::move(q);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        queued_work_ -= static_cast<std::int64_t>(dead.desc.count) *
                        dead.desc.estimated_runtime;
        ++version_;
        if (dead.on_end) dead.on_end(dead.desc.id, EndReason::kCancelled);
        progressed = true;
        break;
      }
      if (it->start <= now) {
        Queued ready = std::move(q);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        queued_work_ -= static_cast<std::int64_t>(ready.desc.count) *
                        ready.desc.estimated_runtime;
        start(std::move(ready));
        progressed = true;
        break;
      }
    }
    if (progressed) continue;
    // Pass 2: best-effort FCFS — only the first best-effort job is
    // considered, and only if it cannot collide with any admitted window.
    // The peak reserved count over the job's estimated run is one range
    // query on the windows-only profile.
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      Queued& q = queue_[i];
      if (q.reservation != 0) continue;
      const sim::Time until = estimated_end(q.desc, now);
      const std::int32_t reserved_peak =
          until > now ? total_ - res_.min_free_over(now, until)
                      : total_ - res_.free_at(now);
      if (busy_best_ + q.desc.count + reserved_peak <= total_) {
        Queued ready = std::move(q);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        queued_work_ -= static_cast<std::int64_t>(ready.desc.count) *
                        ready.desc.estimated_runtime;
        start(std::move(ready));
        progressed = true;
      }
      break;  // FCFS: never look past the first best-effort job
    }
  }
  scheduling_ = false;
}

void ReservationScheduler::start(Queued&& q) {
  busy_ += q.desc.count;
  ++version_;
  Running r;
  r.desc = q.desc;
  r.on_end = std::move(q.on_end);
  r.reservation = q.reservation;
  if (q.reservation == 0) {
    // A best-effort job commits its estimated tail so reservation
    // admission sees it; reserved jobs are accounted by their window.
    const sim::Time now = engine_->now();
    busy_best_ += q.desc.count;
    r.est_end = estimated_end(r.desc, now);
    commit_.reserve(now, r.est_end, r.desc.count);
  }
  const JobId id = q.desc.id;
  Running& slot = running_.emplace(id, std::move(r));
  slot.timers.arm(*engine_, slot.desc,
                  [this, id](EndReason why) { end_running(id, why); });
  if (q.on_start) q.on_start(id);
}

void ReservationScheduler::end_running(JobId id, EndReason reason) {
  Running* found = running_.find(id);
  if (found == nullptr) return;
  Running r = std::move(*found);
  running_.erase(id);
  r.timers.cancel(*engine_);
  busy_ -= r.desc.count;
  ++version_;
  if (r.reservation == 0) {
    busy_best_ -= r.desc.count;
    const sim::Time now = engine_->now();
    if (r.est_end > now) {
      // Return the unused committed tail; a job that ran past its
      // estimate already elapsed out of the profile.
      commit_.release(now, r.est_end, r.desc.count);
    }
  }
  if (r.on_end) r.on_end(id, reason);
  try_schedule();
}

void ReservationScheduler::complete(JobId id) {
  end_running(id, EndReason::kCompleted);
}

bool ReservationScheduler::cancel(JobId id) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->desc.id == id) {
      Queued q = std::move(*it);
      queue_.erase(it);
      queued_work_ -= static_cast<std::int64_t>(q.desc.count) *
                      q.desc.estimated_runtime;
      ++version_;
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

QueueSummary ReservationScheduler::summary() const {
  QueueSummary s;
  s.taken_at = engine_->now();
  s.total_processors = total_;
  s.busy_processors = busy_;
  s.queue_length = static_cast<std::uint32_t>(queue_.size());
  s.queued_work = queued_work_;  // maintained incrementally at queue edits
  return s;
}

QueueSnapshot ReservationScheduler::snapshot() const {
  QueueSnapshot s;
  s.taken_at = engine_->now();
  s.total_processors = total_;
  s.busy_processors = busy_;
  for (const Queued& q : queue_) {
    s.queued.push_back(QueuedJobInfo{q.desc.id, q.desc.count,
                                     q.desc.estimated_runtime,
                                     q.submitted_at});
  }
  return s;
}

}  // namespace grid::sched
