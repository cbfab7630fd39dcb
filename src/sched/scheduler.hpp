// Local scheduler interface: the resource-local allocation policy that a
// GRAM job manager submits to (paper §2.1's LoadLeveler/PBS/NQE role).
//
// A scheduler owns a pool of processors.  Jobs are submitted with a
// processor count; the scheduler decides when they start and invokes the
// start callback.  Jobs either self-complete after `runtime` (synthetic
// background load) or run until the owner calls complete() (application
// jobs whose lifetime the simulation controls).
//
// The batch, reservation and fork schedulers differ only in policy.  They
// share one job lifecycle: admit() decides every submit, planned_length()
// is the run length a decision plans with, and RunTimers ends a running
// job by itself.  ReferenceBackfill keeps its own copies, as an oracle
// must.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "simkit/check.hpp"
#include "simkit/engine.hpp"
#include "simkit/inplace_function.hpp"
#include "simkit/status.hpp"
#include "simkit/time.hpp"

namespace grid::sched {

using JobId = std::uint64_t;

/// What the scheduler needs to know about a job.
struct JobDescriptor {
  JobId id = 0;
  std::int32_t count = 1;  // processors
  /// User-supplied runtime estimate; backfill trusts it, FCFS ignores it.
  sim::Time estimated_runtime = 0;
  /// If > 0 the scheduler self-completes the job this long after start
  /// (synthetic load).  If 0 the owner must call complete().
  sim::Time runtime = 0;
  /// Hard limit: the scheduler kills the job this long after start.
  sim::Time max_wall_time = 0;
};

/// Why a running or queued job left the scheduler.
enum class EndReason { kCompleted, kCancelled, kWallTimeExceeded };

struct QueuedJobInfo {
  JobId id = 0;
  std::int32_t count = 0;
  sim::Time estimated_runtime = 0;
  sim::Time submitted_at = 0;

  bool operator==(const QueuedJobInfo&) const = default;
};

/// Point-in-time view of a scheduler used by predictors and information
/// services (paper §2.2: "publish information about the current queue
/// contents and scheduling policy").
struct QueueSnapshot {
  sim::Time taken_at = 0;
  std::int32_t total_processors = 0;
  std::int32_t busy_processors = 0;
  std::vector<QueuedJobInfo> queued;

  /// Aggregate queued work in processor-nanoseconds.
  std::int64_t queued_work() const;
};

/// Aggregate-only view of a scheduler: everything the wait predictors and
/// the broker need, with no per-job detail.  Publishing and serving this is
/// O(1) regardless of queue depth, so the information service prefers it
/// and falls back to full snapshots only when a consumer asks for the
/// queued-job list.
struct QueueSummary {
  sim::Time taken_at = 0;
  std::int32_t total_processors = 0;
  std::int32_t busy_processors = 0;
  std::uint32_t queue_length = 0;
  std::int64_t queued_work = 0;  // processor-nanoseconds

  std::int32_t free_processors() const {
    return total_processors - busy_processors;
  }
};

/// Derives the aggregate view from a full snapshot (O(queue depth); the
/// concrete schedulers override summary() with O(1) incremental state).
QueueSummary summarize(const QueueSnapshot& snapshot);

// ---- the shared job lifecycle ----------------------------------------------

/// The `machine` size of a timeshared scheduler: no count is too large.
inline constexpr std::int32_t kTimeshared =
    std::numeric_limits<std::int32_t>::max();

/// Answers whether a scheduler already holds a job id, queued or running.
using HoldsFn = sim::InplaceFunction<16, bool(JobId)>;

/// The admission rule of every scheduler, checked in this order: a count
/// below 1 is kInvalidArgument, a count above `machine` processors is
/// kResourceExhausted, id 0 is kInvalidArgument, and so is an id that
/// `holds` reports held.  `holds` is asked only about nonzero ids.
util::Status admit(const JobDescriptor& job, std::int32_t machine,
                   HoldsFn holds);

/// The run length a scheduling decision plans with: the estimate, else the
/// runtime, else the wall limit, else 0 (the job plans none).
inline sim::Time planned_length(const JobDescriptor& job) {
  if (job.estimated_runtime > 0) return job.estimated_runtime;
  if (job.runtime > 0) return job.runtime;
  return job.max_wall_time > 0 ? job.max_wall_time : 0;
}

/// `start + length`, saturating at kTimeNever.
inline sim::Time planned_end(sim::Time start, sim::Time length) {
  return length >= sim::kTimeNever - start ? sim::kTimeNever : start + length;
}

/// The two timers that end a running job by themselves: self-completion
/// after `runtime` and the kill at `max_wall_time`.  A zero duration arms
/// no timer.
struct RunTimers {
  sim::EventId completion;
  sim::EventId wall;

  /// Arms the timers `job` asks for, completion first, as the job starts.
  /// A firing timer calls `end(EndReason)`.
  template <typename End>
  void arm(sim::Engine& engine, const JobDescriptor& job, End end) {
    if (job.runtime > 0) {
      completion = engine.schedule_after(
          job.runtime, [end] { end(EndReason::kCompleted); });
    }
    if (job.max_wall_time > 0) {
      wall = engine.schedule_after(
          job.max_wall_time, [end] { end(EndReason::kWallTimeExceeded); });
    }
  }

  /// Disarms both; the job ended some other way, or is ending now.
  void cancel(sim::Engine& engine) const {
    engine.cancel(completion);
    engine.cancel(wall);
  }
};

class LocalScheduler {
 public:
  /// Invoked when the scheduler allocates processors and starts the job.
  using StartFn = std::function<void(JobId)>;
  /// Invoked when a job ends for any reason after having started, or is
  /// cancelled while queued.
  using EndFn = std::function<void(JobId, EndReason)>;

  virtual ~LocalScheduler() = default;

  /// Enqueues a job.  Fails with kResourceExhausted if the job can never
  /// run (count exceeds the machine), kInvalidArgument for bad descriptors.
  virtual util::Status submit(const JobDescriptor& job, StartFn on_start,
                              EndFn on_end) = 0;

  /// Marks a started job's processes as finished, freeing processors.
  /// No-op for unknown ids.
  virtual void complete(JobId id) = 0;

  /// Removes a queued job or kills a running one.  Returns false for
  /// unknown ids.
  virtual bool cancel(JobId id) = 0;

  virtual std::int32_t total_processors() const = 0;
  virtual std::int32_t busy_processors() const = 0;
  virtual std::size_t queue_length() const = 0;
  virtual QueueSnapshot snapshot() const = 0;

  /// Aggregate-only snapshot.  The default derives it from snapshot() and
  /// costs O(queue depth); production schedulers override it with O(1)
  /// incrementally maintained counters.
  virtual QueueSummary summary() const { return summarize(snapshot()); }

  /// Monotonic counter bumped on every observable state change (submit,
  /// start, end, cancel, reservation edit).  Information services use it
  /// as a dirty flag: equal versions guarantee an identical snapshot.
  /// 0 means "untracked" — consumers must treat the state as always dirty.
  virtual std::uint64_t version() const { return 0; }

  // ---- publication hooks (LoadInformationService) --------------------------
  //
  // A publish round calls mark_published(); published_queue() then returns
  // the queued jobs as they stood at that mark, in queue order, until the
  // next mark.  Only the latest mark is answered, so a scheduler has one
  // publisher: `version` is the version() the publisher read at its mark,
  // and any other version fails a GRID_CHECK.  Both hooks are publication
  // bookkeeping, logically const like a cache.
  //
  // The default copies snapshot()'s queue at the mark and hands it back.
  // BatchScheduler instead journals the jobs that leave its queue after
  // the mark and rebuilds the list on demand, so a round copies nothing.

  virtual void mark_published() const {
    published_ = snapshot().queued;
    published_version_ = version();
  }
  virtual std::vector<QueuedJobInfo> published_queue(
      [[maybe_unused]] std::uint64_t version) const {
    GRID_CHECK(version == published_version_,
               "published_queue for a round this scheduler did not mark last");
    return published_;
  }

  /// Human-readable policy name ("fork", "fcfs", "easy-backfill", ...).
  virtual std::string policy() const = 0;

 private:
  mutable std::vector<QueuedJobInfo> published_;  // default hooks' copy
  mutable std::uint64_t published_version_ = 0;
};

}  // namespace grid::sched
