// ReferenceBackfill: the scan-based FCFS/EASY oracle.
//
// This is the seed BatchScheduler kept alive as an executable
// specification.  Every decision is made by rescanning the queue and the
// running set — O(n) per submit, O(n^2) over a deep queue — which is
// exactly why it is trustworthy: each scan is a direct transcription of
// the EASY contract (DESIGN.md §5.4) with no caches, no incremental
// bookkeeping, and no profile to get out of sync.
//
// tests/sched_diff_test.cpp holds BatchScheduler (the profile-based
// production path) equal to this oracle on randomized workloads, and
// bench/micro_sched measures the production path against it.  Test and
// bench use only — never wire it into an experiment.
//
// Two deliberate refinements over the seed loop, shared with the
// production path (see DESIGN.md §5.4 for the rationale):
//   - `extra` is defined as free-at-shadow minus the head's need, so
//     running jobs whose estimated ends coincide all count (the seed
//     under-counted the spare set when ends tied);
//   - estimated ends already in the past count as free immediately and
//     the shadow never lies in the past (the seed kept stale end times).
#pragma once

#include <deque>
#include <vector>

#include "sched/batch.hpp"
#include "sched/scheduler.hpp"
#include "simkit/idmap.hpp"

namespace grid::sched {

class ReferenceBackfill final : public LocalScheduler {
 public:
  ReferenceBackfill(sim::Engine& engine, std::int32_t processors,
                    Backfill backfill = Backfill::kNone);

  util::Status submit(const JobDescriptor& job, StartFn on_start,
                      EndFn on_end) override;
  void complete(JobId id) override;
  bool cancel(JobId id) override;

  std::int32_t total_processors() const override { return total_; }
  std::int32_t busy_processors() const override { return total_ - free_; }
  std::size_t queue_length() const override { return queue_.size(); }
  QueueSnapshot snapshot() const override;
  std::string policy() const override {
    return backfill_ == Backfill::kEasy ? "reference-easy-backfill"
                                        : "reference-fcfs";
  }

 private:
  struct Queued {
    JobDescriptor desc;
    StartFn on_start;
    EndFn on_end;
    sim::Time submitted_at = 0;
  };
  struct Running {
    JobDescriptor desc;
    EndFn on_end;
    sim::Time started_at = 0;
    sim::Time est_end = 0;
    sim::EventId runtime_event;
    sim::EventId wall_event;
  };

  void try_schedule();
  void start(Queued&& q);
  void end_running(JobId id, EndReason reason);
  sim::Time estimated_end(const JobDescriptor& d, sim::Time started) const;

  sim::Engine* engine_;
  std::int32_t total_;
  std::int32_t free_;
  Backfill backfill_;
  std::deque<Queued> queue_;
  sim::IdSlab<Running> running_;
  bool scheduling_ = false;
};

}  // namespace grid::sched
