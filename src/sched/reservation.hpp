// Advance-reservation scheduler (paper §2.2 and §5).
//
// Extends space-shared scheduling with admission-controlled capacity
// reservations: an admitted reservation blocks `count` processors for its
// whole window, jobs bound to a reservation start exactly at the window
// start, and best-effort jobs may only start if they cannot collide with
// any admitted window (using runtime estimates).  This is the local-manager
// capability the paper argues co-reservation ultimately requires; the
// `ablate_reservation` bench quantifies the co-allocation benefit.
//
// Decisions read two sched::Profile free-slot structures instead of
// rescanning the reservation list and the running set (the seed shape):
//   - `res_` holds admitted windows only — the best-effort admission check
//     reads the peak reserved count over a job's estimated run as one
//     range query;
//   - `commit_` additionally holds the estimated tails of running
//     best-effort jobs — reservation admission reads the committed peak
//     over the candidate window as one range query.
// Both queries are exact rewrites of the seed scans: reserved-plus-running
// load only steps up at window starts, so the seed's sampling at starts
// and the profile's minimum over all breakpoints agree everywhere.
#pragma once

#include <deque>
#include <vector>

#include "sched/profile.hpp"
#include "sched/scheduler.hpp"
#include "simkit/idmap.hpp"

namespace grid::sched {

using ReservationId = std::uint64_t;

struct Reservation {
  ReservationId id = 0;
  sim::Time start = 0;
  sim::Time end = 0;
  std::int32_t count = 0;
};

class ReservationScheduler final : public LocalScheduler {
 public:
  /// Jobs that plan no length (planned_length() 0) are assumed to run an
  /// hour when checked against reservation windows.
  ReservationScheduler(sim::Engine& engine, std::int32_t processors);

  // ---- reservations ------------------------------------------------------

  /// Admission control: succeeds iff the window fits alongside all admitted
  /// reservations and the estimated ends of running jobs.
  util::Result<Reservation> reserve(sim::Time start, sim::Time end,
                                    std::int32_t count);

  /// Releases an unused reservation (or the remainder of one).
  bool cancel_reservation(ReservationId id);

  /// Submits a job bound to a reservation; it starts at the window start
  /// (immediately if the window is open) and is killed at window end if
  /// still running.  The job must pass admit(), and its count, plus the
  /// counts of the jobs already bound to the reservation and still queued
  /// or running, must fit the reservation (kResourceExhausted otherwise).
  util::Status submit_reserved(const JobDescriptor& job, ReservationId rid,
                               StartFn on_start, EndFn on_end);

  std::size_t reservation_count() const { return reservations_.size(); }

  /// Sum of reserved processors at time t (admitted windows containing t).
  std::int32_t reserved_at(sim::Time t) const;

  // ---- LocalScheduler (best-effort queue) --------------------------------

  util::Status submit(const JobDescriptor& job, StartFn on_start,
                      EndFn on_end) override;
  void complete(JobId id) override;
  bool cancel(JobId id) override;

  std::int32_t total_processors() const override { return total_; }
  std::int32_t busy_processors() const override { return busy_; }
  std::size_t queue_length() const override { return queue_.size(); }
  QueueSnapshot snapshot() const override;
  QueueSummary summary() const override;
  std::uint64_t version() const override { return version_; }
  std::string policy() const override { return "fcfs+reservations"; }

 private:
  struct Queued {
    JobDescriptor desc;
    StartFn on_start;
    EndFn on_end;
    sim::Time submitted_at = 0;
    ReservationId reservation = 0;  // 0 = best-effort
  };
  struct Running {
    JobDescriptor desc;
    EndFn on_end;
    sim::Time est_end = 0;  // commit-profile occupancy end (best-effort)
    ReservationId reservation = 0;
    RunTimers timers;
  };

  /// admit() for either entry point; a held id is one queued or running.
  util::Status admit_job(const JobDescriptor& job) const;
  /// Queues an admitted job (`reservation` 0 = best-effort).
  void enqueue(const JobDescriptor& job, ReservationId reservation,
               StartFn on_start, EndFn on_end);
  void try_schedule();
  void start(Queued&& q);
  void end_running(JobId id, EndReason reason);

  sim::Engine* engine_;
  std::int32_t total_;
  std::int32_t busy_ = 0;       // all running jobs, reserved or not
  std::int32_t busy_best_ = 0;  // running best-effort jobs only
  ReservationId next_reservation_ = 1;
  std::vector<Reservation> reservations_;
  Profile res_;     // admitted windows
  Profile commit_;  // admitted windows + estimated best-effort tails
  std::deque<Queued> queue_;
  sim::IdSlab<Running> running_;
  bool scheduling_ = false;
  std::int64_t queued_work_ = 0;  // sum of count*estimate over the queue
  std::uint64_t version_ = 1;     // dirty-flag counter (0 = untracked)
};

}  // namespace grid::sched
