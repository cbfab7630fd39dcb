#include "sched/batch.hpp"

#include <algorithm>

#include "simkit/check.hpp"

namespace grid::sched {

BatchScheduler::BatchScheduler(sim::Engine& engine, std::int32_t processors,
                               Backfill backfill)
    : engine_(&engine),
      total_(processors),
      free_(processors),
      backfill_(backfill),
      profile_(processors) {}

void BatchScheduler::set_history_capacity(std::size_t cap) {
  if (cap != 0) {
    sim::check_fail(__FILE__, __LINE__,
                    "BatchScheduler keeps no wait history: capacity must be 0");
  }
}

util::Status BatchScheduler::submit(const JobDescriptor& job, StartFn on_start,
                                    EndFn on_end) {
  util::Status admitted = admit(job, total_, [this](JobId id) {
    return running_.find(id) != nullptr ||
           queued_ids_.find(id) != sim::IdMap::kNotFound;
  });
  if (!admitted.is_ok()) return admitted;
  Queued q;
  q.desc = job;
  q.on_start = std::move(on_start);
  q.on_end = std::move(on_end);
  q.seq = next_seq_++;
  q.submitted_at = engine_->now();
  const bool was_blocked = !queue_.empty();
  queue_.push_back(std::move(q));
  queued_ids_.insert(job.id, 1);
  queued_work_ += static_cast<std::int64_t>(job.count) * job.estimated_runtime;
  ++version_;
  if (was_blocked && !scheduling_) {
    // The head was already blocked and nothing freed processors since the
    // last pass, so FCFS cannot start anything and only the new tail job
    // is an undecided backfill candidate.
    if (backfill_ == Backfill::kEasy) submit_fast_path();
    return util::Status::ok();
  }
  try_schedule();
  return util::Status::ok();
}

void BatchScheduler::submit_fast_path() {
  if (!cache_valid_) {
    try_schedule();
    return;
  }
  // Validity check: recompute the shadow state from the profile.  If it
  // matches what the last pass left behind, every previously rejected
  // candidate is still rejected (the admission conditions only tightened),
  // so only the new tail job needs a decision.  Any drift — an estimate
  // expired, a backfilled job returned spare capacity early — falls back
  // to the full pass, which recomputes everything exactly.
  const sim::Time now = engine_->now();
  const Queued& head = queue_.front();
  const Profile::Fit fit = profile_.earliest_fit(now, head.desc.count);
  const std::int32_t extra = fit.free - head.desc.count;
  if (fit.at != cached_shadow_ || extra != cached_extra_) {
    try_schedule();
    return;
  }
  Queued& cand = queue_.back();
  if (cand.desc.count > free_) return;
  const sim::Time est = backfill_estimate(cand.desc);
  const bool ends_before_shadow = cached_shadow_ != sim::kTimeNever &&
                                  est > 0 && now + est <= cached_shadow_;
  const bool within_extra = cand.desc.count <= cached_extra_;
  if (!ends_before_shadow && !within_extra) return;
  if (!ends_before_shadow) cached_extra_ -= cand.desc.count;
  // The tail is the job this submit just queued, after every publication
  // mark, so its start has no departure to journal.
  GRID_CHECK(cand.seq >= mark_seq_,
             "fast path starting a job queued at the publication mark");
  Queued q = std::move(cand);
  queue_.pop_back();
  // The admission continues the pass that cached the shadow state, so the
  // start runs under the same re-entrancy discipline as a full pass: an
  // end inside the start callback must not trigger a nested fresh pass.
  scheduling_ = true;
  const std::uint64_t gen = state_gen_;
  const std::size_t stable_size = queue_.size();
  start(std::move(q));
  if (state_gen_ != gen || queue_.size() != stable_size) {
    // The start callback ended, cancelled, or submitted jobs re-entrantly.
    // Finish the pass the way the oracle would: rescan the whole queue
    // under the still-frozen shadow state.
    const std::int32_t final_extra =
        backfill_scan(now, cached_shadow_, cached_extra_);
    if (state_gen_ == gen) {
      cached_extra_ = final_extra;  // only submits happened; cache holds
    } else {
      cache_valid_ = false;  // shadow may be stale; next submit rescans
    }
  }
  scheduling_ = false;
}

void BatchScheduler::try_schedule() {
  if (scheduling_) return;  // start callbacks may complete() synchronously
  scheduling_ = true;
  cache_valid_ = false;
  profile_.advance_to(engine_->now());
  for (;;) {
    // FCFS: start head jobs while they fit.
    if (!queue_.empty() && queue_.front().desc.count <= free_) {
      journal_departure(queue_.front());
      Queued q = std::move(queue_.front());
      queue_.pop_front();
      start(std::move(q));
      continue;
    }
    break;
  }
  if (backfill_ == Backfill::kEasy && !queue_.empty()) {
    // Shadow state: the earliest instant the head job could start assuming
    // running jobs end at their estimated ends, and the processors it
    // would leave spare then.  One profile query instead of sorting the
    // running set.  Frozen for the whole pass (the EASY contract).
    const sim::Time now = engine_->now();
    const std::int32_t head_count = queue_.front().desc.count;
    const Profile::Fit fit = profile_.earliest_fit(now, head_count);
    const sim::Time shadow = fit.at;
    const std::uint64_t pass_gen = state_gen_;
    const std::int32_t extra = backfill_scan(now, shadow, fit.free - head_count);
    if (state_gen_ == pass_gen && !queue_.empty()) {
      cache_valid_ = true;
      cached_shadow_ = shadow;
      cached_extra_ = extra;
    }
  }
  scheduling_ = false;
}

std::int32_t BatchScheduler::backfill_scan(sim::Time now, sim::Time shadow,
                                           std::int32_t extra) {
  // Backfill jobs behind the head that fit now and either end by the shadow
  // time or use only the head job's spare processors.
  for (std::size_t i = 1; i < queue_.size();) {
    Queued& cand = queue_[i];
    if (cand.desc.count > free_) {
      ++i;
      continue;
    }
    const sim::Time est = backfill_estimate(cand.desc);
    const bool ends_before_shadow =
        shadow != sim::kTimeNever && est > 0 && now + est <= shadow;
    const bool within_extra = cand.desc.count <= extra;
    if (!ends_before_shadow && !within_extra) {
      ++i;
      continue;
    }
    if (!ends_before_shadow) extra -= cand.desc.count;
    journal_departure(cand);
    Queued q = std::move(cand);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
    const std::uint64_t gen = state_gen_;
    start(std::move(q));
    // Starting a job only tightens the admission conditions, so the scan
    // continues in place — unless the start callback ended or cancelled a
    // job re-entrantly, where the oracle scan's restart-from-the-front
    // behaviour is reproduced exactly.
    if (state_gen_ != gen) i = 1;
  }
  return extra;
}

void BatchScheduler::start(Queued&& q) {
  free_ -= q.desc.count;
  ++version_;
  queued_work_ -=
      static_cast<std::int64_t>(q.desc.count) * q.desc.estimated_runtime;
  const sim::Time now = engine_->now();
  const sim::Time length = planned_length(q.desc);
  Running r;
  r.desc = q.desc;
  r.on_end = std::move(q.on_end);
  // A job that plans no length occupies the profile forever.
  r.est_end = length > 0 ? planned_end(now, length) : sim::kTimeNever;
  const JobId id = q.desc.id;
  queued_ids_.erase(id);
  profile_.reserve(now, r.est_end, r.desc.count);
  Running& slot = running_.emplace(id, std::move(r));
  slot.timers.arm(*engine_, slot.desc,
                  [this, id](EndReason why) { end_running(id, why); });
  if (q.on_start) q.on_start(id);
}

void BatchScheduler::end_running(JobId id, EndReason reason) {
  Running* found = running_.find(id);
  if (found == nullptr) return;
  Running r = std::move(*found);
  running_.erase(id);
  r.timers.cancel(*engine_);
  free_ += r.desc.count;
  ++state_gen_;
  ++version_;
  cache_valid_ = false;
  const sim::Time now = engine_->now();
  if (r.est_end > now) {
    // Return the unused tail of the job's estimated occupancy; a job that
    // ran past its estimate has no tail left to return.
    profile_.release(now, r.est_end, r.desc.count);
  }
  if (r.on_end) r.on_end(id, reason);
  try_schedule();
}

void BatchScheduler::complete(JobId id) {
  end_running(id, EndReason::kCompleted);
}

bool BatchScheduler::cancel(JobId id) {
  if (queued_ids_.find(id) != sim::IdMap::kNotFound) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->desc.id == id) {
        journal_departure(*it);
        Queued q = std::move(*it);
        queue_.erase(it);
        queued_ids_.erase(id);
        queued_work_ -=
            static_cast<std::int64_t>(q.desc.count) * q.desc.estimated_runtime;
        ++state_gen_;          // an in-pass scan must not trust its indices
        ++version_;
        cache_valid_ = false;  // the head (and thus the shadow) may change
        if (q.on_end) q.on_end(id, EndReason::kCancelled);
        try_schedule();  // removing a stuck head job may unblock others
        return true;
      }
    }
    GRID_CHECK(false, "queued_ids_ out of sync with the queue");
  }
  if (running_.find(id) != nullptr) {
    end_running(id, EndReason::kCancelled);
    return true;
  }
  return false;
}

QueueSummary BatchScheduler::summary() const {
  QueueSummary s;
  s.taken_at = engine_->now();
  s.total_processors = total_;
  s.busy_processors = total_ - free_;
  s.queue_length = static_cast<std::uint32_t>(queue_.size());
  s.queued_work = queued_work_;  // maintained incrementally by submit/start
  return s;
}

void BatchScheduler::journal_departure(const Queued& q) {
  if (q.seq >= mark_seq_) return;  // submitted after the mark
  const Departure d{q.seq, info_of(q)};
  departed_.insert(
      std::upper_bound(departed_.begin(), departed_.end(), d,
                       [](const Departure& a, const Departure& b) {
                         return a.seq < b.seq;
                       }),
      d);
}

void BatchScheduler::mark_published() const {
#if defined(GRID_CHECKED)
  if (marked_) {
    GRID_CHECK(published_queue(mark_version_) == marked_copy_,
               "BatchScheduler departure journal lost a published job");
  }
  marked_copy_ = snapshot().queued;
  marked_ = true;
#endif
  departed_.clear();
  mark_seq_ = next_seq_;
  mark_version_ = version_;
}

std::vector<QueuedJobInfo> BatchScheduler::published_queue(
    [[maybe_unused]] std::uint64_t version) const {
  GRID_CHECK(version == mark_version_,
             "published_queue for a round this scheduler did not mark last");
  // Both inputs are in submission order; merge them by sequence number.
  std::vector<QueuedJobInfo> out;
  out.reserve(queue_.size() + departed_.size());
  auto d = departed_.begin();
  for (const Queued& q : queue_) {
    if (q.seq >= mark_seq_) break;  // the rest were submitted after the mark
    for (; d != departed_.end() && d->seq < q.seq; ++d) out.push_back(d->info);
    out.push_back(info_of(q));
  }
  for (; d != departed_.end(); ++d) out.push_back(d->info);
  return out;
}

QueueSnapshot BatchScheduler::snapshot() const {
  QueueSnapshot s;
  s.taken_at = engine_->now();
  s.total_processors = total_;
  s.busy_processors = total_ - free_;
  s.queued.reserve(queue_.size());
  for (const Queued& q : queue_) s.queued.push_back(info_of(q));
  return s;
}

}  // namespace grid::sched
