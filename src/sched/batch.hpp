// Space-shared batch scheduler: FCFS, optionally with EASY backfill.
//
// Stands in for the production schedulers (LoadLeveler, PBS, NQE) whose
// queue waits dominate real co-allocation startup (paper §4.2's closing
// remark) and whose unpredictability motivates the forecast and
// reservation studies (§2.2, §5).
//
// Decisions are made against a time-indexed free-slot profile
// (sched::Profile) instead of rescans of the queue and the running set,
// so a submit into a 100k-deep queue costs O(log n) amortized rather than
// O(n).  The decision *semantics* are the EASY contract spelled out in
// DESIGN.md §5.4 and executable as sched::ReferenceBackfill
// (reference.hpp); tests/sched_diff_test.cpp holds the two equal on
// randomized workloads forever.
#pragma once

#include <deque>

#include "sched/profile.hpp"
#include "sched/scheduler.hpp"
#include "simkit/check.hpp"
#include "simkit/idmap.hpp"

namespace grid::sched {

enum class Backfill {
  kNone,  // pure FCFS
  kEasy,  // EASY: backfill only if the head job's start is not delayed
};

class BatchScheduler final : public LocalScheduler {
 public:
  BatchScheduler(sim::Engine& engine, std::int32_t processors,
                 Backfill backfill = Backfill::kNone);

  util::Status submit(const JobDescriptor& job, StartFn on_start,
                      EndFn on_end) override;
  void complete(JobId id) override;
  bool cancel(JobId id) override;

  std::int32_t total_processors() const override { return total_; }
  std::int32_t busy_processors() const override { return total_ - free_; }
  std::size_t queue_length() const override { return queue_.size(); }
  QueueSnapshot snapshot() const override;
  QueueSummary summary() const override;
  std::uint64_t version() const override { return version_; }
  /// Departure journal: the queue is in submission order, so the queue at
  /// the mark is the live queue's pre-mark jobs merged by submission
  /// sequence with the pre-mark jobs that left since.  A mark costs O(1);
  /// a rebuild O(queue depth), paid only when a full snapshot is asked for.
  void mark_published() const override;
  std::vector<QueuedJobInfo> published_queue(
      std::uint64_t version) const override;
  std::string policy() const override {
    return backfill_ == Backfill::kEasy ? "easy-backfill" : "fcfs";
  }

  /// `cap` exists only for gridbench/harness.cpp, which passes 0 and
  /// changes only together with the benchmark; the next benchmark change
  /// deletes this function.  The scheduler keeps no wait history, so any
  /// other value aborts in every build.
  void set_history_capacity(std::size_t cap);

  /// The free-slot profile the backfill decisions read (tests/benches).
  const Profile& profile() const { return profile_; }

 private:
  struct Queued {
    JobDescriptor desc;
    StartFn on_start;
    EndFn on_end;
    std::uint64_t seq = 0;  // submission sequence number
    sim::Time submitted_at = 0;
  };
  struct Running {
    JobDescriptor desc;
    EndFn on_end;
    sim::Time est_end = 0;  // profile occupancy end fixed at start time
    RunTimers timers;
  };

  /// Full scheduling pass: FCFS holds, then one EASY scan of the queue.
  void try_schedule();
  /// The EASY scan under a frozen (shadow, extra): starts admissible
  /// candidates, returns the remaining extra.  Restarts from the front
  /// when a start callback ends a job re-entrantly (the seed scan shape).
  std::int32_t backfill_scan(sim::Time now, sim::Time shadow,
                             std::int32_t extra);
  /// O(log n) fast path for a submit into an already-blocked queue; falls
  /// back to try_schedule() when the cached shadow state is stale.
  void submit_fast_path();
  void start(Queued&& q);
  void end_running(JobId id, EndReason reason);
  /// Called where a queued job that may predate the mark leaves the queue:
  /// the FCFS head start, the backfill start and cancel.
  void journal_departure(const Queued& q);
  static QueuedJobInfo info_of(const Queued& q) {
    return QueuedJobInfo{q.desc.id, q.desc.count, q.desc.estimated_runtime,
                         q.submitted_at};
  }
  /// Admission estimate for backfill: estimate else runtime (no wall
  /// fallback — mirrors the seed scan and the reference oracle).
  static sim::Time backfill_estimate(const JobDescriptor& d) {
    return d.estimated_runtime > 0 ? d.estimated_runtime : d.runtime;
  }

  sim::Engine* engine_;
  std::int32_t total_;
  std::int32_t free_;
  Backfill backfill_;
  std::deque<Queued> queue_;
  sim::IdSlab<Running> running_;
  sim::IdMap queued_ids_;  // queued job ids (duplicate/cancel lookups)
  Profile profile_;        // future free processors from running jobs
  std::int64_t queued_work_ = 0;  // sum of count*estimate over the queue
  bool scheduling_ = false;  // re-entrancy guard for try_schedule
  std::uint64_t state_gen_ = 0;  // bumped by end_running (re-entrant ends)
  std::uint64_t version_ = 1;    // dirty-flag counter (0 = untracked)
  // Publication mark: jobs with seq < mark_seq_ were queued at the mark;
  // departed_ holds those that left since, sorted by seq.
  std::uint64_t next_seq_ = 0;
  struct Departure {
    std::uint64_t seq = 0;
    QueuedJobInfo info;
  };
  mutable std::vector<Departure> departed_;
  mutable std::uint64_t mark_seq_ = 0;
  mutable std::uint64_t mark_version_ = 0;
  // Checked builds also copy the queue at each mark and hold the rebuild
  // to it before the next mark clears the journal.
  GRID_CHECKED_ONLY(mutable std::vector<QueuedJobInfo> marked_copy_;
                    mutable bool marked_ = false;)
  // Shadow state cached by the last full EASY pass that left the head
  // blocked; lets a submit decide its own fate without rescanning.
  bool cache_valid_ = false;
  sim::Time cached_shadow_ = 0;
  std::int32_t cached_extra_ = 0;
};

}  // namespace grid::sched
