// Unit tests for the local schedulers (fork, FCFS, EASY backfill,
// reservations), the queue-wait predictors, and the information service.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "sched/batch.hpp"
#include "sched/fork.hpp"
#include "sched/infoservice.hpp"
#include "sched/predict.hpp"
#include "sched/reservation.hpp"
#include "simkit/rng.hpp"

namespace grid::sched {
namespace {

JobDescriptor job(JobId id, std::int32_t count, sim::Time runtime = 0,
                  sim::Time estimate = 0) {
  JobDescriptor d;
  d.id = id;
  d.count = count;
  d.runtime = runtime;
  d.estimated_runtime = estimate;
  return d;
}

struct Events {
  Events() = default;
  /// Also records the virtual time of each start.
  explicit Events(const sim::Engine& engine) : clock(&engine) {}

  const sim::Engine* clock = nullptr;
  std::vector<JobId> started;
  std::vector<sim::Time> started_at;  // parallel to `started`, with a clock
  std::vector<std::pair<JobId, EndReason>> ended;

  LocalScheduler::StartFn on_start() {
    return [this](JobId id) {
      started.push_back(id);
      if (clock != nullptr) started_at.push_back(clock->now());
    };
  }
  LocalScheduler::EndFn on_end() {
    return [this](JobId id, EndReason r) { ended.emplace_back(id, r); };
  }
};

// ---- fork -----------------------------------------------------------------

TEST(ForkScheduler, StartsAfterPerProcessCost) {
  sim::Engine e;
  ForkScheduler s(e, sim::kMillisecond);
  Events ev;
  ASSERT_TRUE(s.submit(job(1, 64), ev.on_start(), ev.on_end()).is_ok());
  e.run();
  ASSERT_EQ(ev.started.size(), 1u);
  EXPECT_EQ(e.now(), 64 * sim::kMillisecond);
  EXPECT_EQ(s.busy_processors(), 64);
}

TEST(ForkScheduler, SelfCompletesWithRuntime) {
  sim::Engine e;
  ForkScheduler s(e, sim::kMillisecond);
  Events ev;
  s.submit(job(1, 2, 5 * sim::kSecond), ev.on_start(), ev.on_end());
  e.run();
  ASSERT_EQ(ev.ended.size(), 1u);
  EXPECT_EQ(ev.ended[0].second, EndReason::kCompleted);
  EXPECT_EQ(e.now(), 2 * sim::kMillisecond + 5 * sim::kSecond);
  EXPECT_EQ(s.busy_processors(), 0);
}

TEST(ForkScheduler, ExternallyCompleted) {
  sim::Engine e;
  ForkScheduler s(e, 0);
  Events ev;
  s.submit(job(1, 4), ev.on_start(), ev.on_end());
  e.run();
  EXPECT_EQ(s.busy_processors(), 4);
  s.complete(1);
  EXPECT_EQ(s.busy_processors(), 0);
  ASSERT_EQ(ev.ended.size(), 1u);
}

TEST(ForkScheduler, WallTimeKills) {
  sim::Engine e;
  ForkScheduler s(e, 0);
  Events ev;
  JobDescriptor d = job(1, 1);
  d.max_wall_time = sim::kSecond;
  s.submit(d, ev.on_start(), ev.on_end());
  e.run();
  ASSERT_EQ(ev.ended.size(), 1u);
  EXPECT_EQ(ev.ended[0].second, EndReason::kWallTimeExceeded);
}

TEST(ForkScheduler, CancelBeforeStart) {
  sim::Engine e;
  ForkScheduler s(e, sim::kSecond);
  Events ev;
  s.submit(job(1, 10), ev.on_start(), ev.on_end());
  EXPECT_TRUE(s.cancel(1));
  e.run();
  EXPECT_TRUE(ev.started.empty());
  ASSERT_EQ(ev.ended.size(), 1u);
  EXPECT_EQ(ev.ended[0].second, EndReason::kCancelled);
}

// ---- FCFS batch ----------------------------------------------------------------

TEST(BatchScheduler, RunsJobsFcfsWithinCapacity) {
  sim::Engine e;
  BatchScheduler s(e, 10);
  Events ev;
  s.submit(job(1, 6, 10 * sim::kSecond), ev.on_start(), ev.on_end());
  s.submit(job(2, 6, 10 * sim::kSecond), ev.on_start(), ev.on_end());
  s.submit(job(3, 4, 10 * sim::kSecond), ev.on_start(), ev.on_end());
  // Job 1 starts immediately; job 2 does not fit; FCFS blocks job 3 too.
  EXPECT_EQ(ev.started, (std::vector<JobId>{1}));
  EXPECT_EQ(s.queue_length(), 2u);
  e.run();
  // When job 1 ends, jobs 2 and 3 both fit (6 + 4 = 10) and start together.
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 2, 3}));
  EXPECT_EQ(e.now(), 20 * sim::kSecond);
}

TEST(BatchScheduler, CancelQueuedUnblocksSuccessors) {
  sim::Engine e;
  BatchScheduler s(e, 10);
  Events ev;
  s.submit(job(1, 10, 10 * sim::kSecond), ev.on_start(), ev.on_end());
  s.submit(job(2, 10, 10 * sim::kSecond), ev.on_start(), ev.on_end());
  EXPECT_TRUE(s.cancel(2));
  e.run();
  EXPECT_EQ(ev.started, (std::vector<JobId>{1}));
  EXPECT_EQ(ev.ended.size(), 2u);
}

TEST(BatchScheduler, CancelRunningFreesProcessors) {
  sim::Engine e;
  BatchScheduler s(e, 10);
  Events ev;
  s.submit(job(1, 10), ev.on_start(), ev.on_end());
  s.submit(job(2, 10, sim::kSecond), ev.on_start(), ev.on_end());
  EXPECT_TRUE(s.cancel(1));
  e.run();
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 2}));
}

TEST(BatchScheduler, CancelOfIdZeroTouchesNoJob) {
  sim::Engine e;
  BatchScheduler s(e, 10);
  Events ev;
  s.submit(job(5, 6), ev.on_start(), ev.on_end());
  ASSERT_EQ(s.busy_processors(), 6);
  EXPECT_FALSE(s.cancel(0));
  EXPECT_EQ(s.busy_processors(), 6);
  EXPECT_TRUE(ev.ended.empty());
}

TEST(BatchScheduler, WallTimeEndsJob) {
  sim::Engine e;
  BatchScheduler s(e, 4);
  Events ev;
  JobDescriptor d = job(1, 4);
  d.max_wall_time = 2 * sim::kSecond;
  s.submit(d, ev.on_start(), ev.on_end());
  e.run();
  ASSERT_EQ(ev.ended.size(), 1u);
  EXPECT_EQ(ev.ended[0].second, EndReason::kWallTimeExceeded);
  EXPECT_EQ(s.busy_processors(), 0);
}

TEST(BatchScheduler, SnapshotReflectsQueue) {
  sim::Engine e;
  BatchScheduler s(e, 4);
  Events ev;
  s.submit(job(1, 4, 10 * sim::kSecond), ev.on_start(), ev.on_end());
  s.submit(job(2, 2, 5 * sim::kSecond, 5 * sim::kSecond), ev.on_start(),
           ev.on_end());
  const QueueSnapshot snap = s.snapshot();
  EXPECT_EQ(snap.total_processors, 4);
  EXPECT_EQ(snap.busy_processors, 4);
  ASSERT_EQ(snap.queued.size(), 1u);
  EXPECT_EQ(snap.queued[0].id, 2u);
  EXPECT_EQ(snap.queued_work(), 2 * 5 * sim::kSecond);
}

TEST(BatchScheduler, QueuedJobStartsWhenProcessorsFree) {
  sim::Engine e;
  BatchScheduler s(e, 4);
  Events ev(e);
  s.submit(job(1, 4, 10 * sim::kSecond), ev.on_start(), ev.on_end());
  s.submit(job(2, 4, sim::kSecond), ev.on_start(), ev.on_end());
  e.run();
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 2}));
  EXPECT_EQ(ev.started_at, (std::vector<sim::Time>{0, 10 * sim::kSecond}));
}

// ---- EASY backfill ---------------------------------------------------------------

TEST(Backfill, SmallJobJumpsQueueWithoutDelayingHead) {
  sim::Engine e;
  BatchScheduler s(e, 10, Backfill::kEasy);
  Events ev;
  // Job 1 occupies 8 for 10 s.  Job 2 (head, needs 10) must wait for it.
  // Job 3 needs 2 for 5 s: fits now and ends before the shadow time.
  s.submit(job(1, 8, 10 * sim::kSecond, 10 * sim::kSecond), ev.on_start(),
           ev.on_end());
  s.submit(job(2, 10, 10 * sim::kSecond, 10 * sim::kSecond), ev.on_start(),
           ev.on_end());
  s.submit(job(3, 2, 5 * sim::kSecond, 5 * sim::kSecond), ev.on_start(),
           ev.on_end());
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 3}));  // 3 backfilled
  e.run();
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 3, 2}));
  // Head job 2 started exactly at the shadow time (10 s), not delayed.
  EXPECT_EQ(e.now(), 20 * sim::kSecond);
}

TEST(Backfill, LongJobDoesNotDelayHead) {
  sim::Engine e;
  BatchScheduler s(e, 10, Backfill::kEasy);
  Events ev;
  s.submit(job(1, 8, 10 * sim::kSecond, 10 * sim::kSecond), ev.on_start(),
           ev.on_end());
  s.submit(job(2, 10, sim::kSecond, sim::kSecond), ev.on_start(), ev.on_end());
  // Job 3 fits now but would run past the shadow time and does not fit in
  // the head job's spare processors (10 - 10 = 0): must NOT backfill.
  s.submit(job(3, 2, 60 * sim::kSecond, 60 * sim::kSecond), ev.on_start(),
           ev.on_end());
  EXPECT_EQ(ev.started, (std::vector<JobId>{1}));
  e.run();
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 2, 3}));
}

TEST(Backfill, UsesSpareProcessorsForLongJobs) {
  sim::Engine e;
  BatchScheduler s(e, 10, Backfill::kEasy);
  Events ev;
  s.submit(job(1, 8, 10 * sim::kSecond, 10 * sim::kSecond), ev.on_start(),
           ev.on_end());
  s.submit(job(2, 6, sim::kSecond, sim::kSecond), ev.on_start(), ev.on_end());
  // Head (job 2, needs 6) will start at t=10 with 4 spare processors.
  // Job 3 (2 procs, long) fits in the spare set: backfills immediately.
  s.submit(job(3, 2, 60 * sim::kSecond, 60 * sim::kSecond), ev.on_start(),
           ev.on_end());
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 3}));
}

TEST(Backfill, FcfsNeverBackfills) {
  sim::Engine e;
  BatchScheduler s(e, 10, Backfill::kNone);
  Events ev;
  s.submit(job(1, 8, 10 * sim::kSecond, 10 * sim::kSecond), ev.on_start(),
           ev.on_end());
  s.submit(job(2, 10, 10 * sim::kSecond, 10 * sim::kSecond), ev.on_start(),
           ev.on_end());
  s.submit(job(3, 2, 5 * sim::kSecond, 5 * sim::kSecond), ev.on_start(),
           ev.on_end());
  EXPECT_EQ(ev.started, (std::vector<JobId>{1}));
}

TEST(Backfill, ZeroEstimateJobsUseOnlySpareProcessors) {
  sim::Engine e;
  BatchScheduler s(e, 16, Backfill::kEasy);
  Events ev(e);
  // Job 1 blocks most of the machine; head job 2 will start at t=10 with
  // exactly 1 spare processor (16 - 15).
  s.submit(job(1, 4, 10 * sim::kSecond, 10 * sim::kSecond), ev.on_start(),
           ev.on_end());
  s.submit(job(2, 15, 10 * sim::kSecond, 10 * sim::kSecond), ev.on_start(),
           ev.on_end());
  // Jobs with no runtime and no estimate could run forever: they may never
  // be admitted on "ends before the shadow" grounds, only into the spare
  // set.  Job 3 (2 procs) exceeds the single spare; job 4 (1 proc) fits.
  s.submit(job(3, 2), ev.on_start(), ev.on_end());
  s.submit(job(4, 1), ev.on_start(), ev.on_end());
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 4}));
  e.run();
  // The forever-running spare job never delays the head: job 2 starts the
  // moment job 1 ends, and job 3 finally runs FCFS once job 2 finishes.
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 4, 2, 3}));
  ASSERT_EQ(ev.started_at.size(), 4u);
  EXPECT_EQ(ev.started_at[2], 10 * sim::kSecond);
  EXPECT_EQ(ev.started_at[3], 20 * sim::kSecond);
  EXPECT_TRUE(s.profile().invariants_ok());
}

TEST(Backfill, ExpiredEstimateMakesShadowImmediate) {
  sim::Engine e;
  BatchScheduler s(e, 10, Backfill::kEasy);
  Events ev(e);
  // Job 1 underestimates badly: claims 5 s, actually runs 20 s.
  s.submit(job(1, 4, 20 * sim::kSecond, 5 * sim::kSecond), ev.on_start(),
           ev.on_end());
  s.submit(job(2, 10, 5 * sim::kSecond, 5 * sim::kSecond), ev.on_start(),
           ev.on_end());
  // Before the estimate expires, a short job backfills normally.
  s.submit(job(3, 2, 4 * sim::kSecond, 4 * sim::kSecond), ev.on_start(),
           ev.on_end());
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 3}));
  // After t=5 job 1's estimate has expired: by the estimates the head
  // could start *now*, so nothing may be admitted ahead of it — even a
  // 1-processor job that fits the idle capacity.
  e.schedule_at(6 * sim::kSecond, [&] {
    s.submit(job(4, 1, sim::kSecond, sim::kSecond), ev.on_start(),
             ev.on_end());
  });
  e.run();
  // Order: job 2 starts when job 1 really ends (t=20), job 4 after job 2.
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 3, 2, 4}));
  ASSERT_EQ(ev.started_at.size(), 4u);
  EXPECT_EQ(ev.started_at[2], 20 * sim::kSecond);
  EXPECT_EQ(ev.started_at[3], 25 * sim::kSecond);
}

TEST(Backfill, CancelHeadWhileBackfillHoldsRun) {
  sim::Engine e;
  BatchScheduler s(e, 10, Backfill::kEasy);
  Events ev(e);
  s.submit(job(1, 8, 10 * sim::kSecond, 10 * sim::kSecond), ev.on_start(),
           ev.on_end());
  s.submit(job(2, 10, 10 * sim::kSecond, 10 * sim::kSecond), ev.on_start(),
           ev.on_end());
  s.submit(job(3, 2, 5 * sim::kSecond, 5 * sim::kSecond), ev.on_start(),
           ev.on_end());  // backfills beside job 1
  s.submit(job(4, 4, 20 * sim::kSecond, 20 * sim::kSecond), ev.on_start(),
           ev.on_end());  // too long and too wide to backfill
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 3}));
  // Cancel the blocked head while the backfilled hold is still running.
  e.schedule_at(2 * sim::kSecond, [&] { EXPECT_TRUE(s.cancel(2)); });
  e.run();
  // Job 4 becomes the head; it fits only once job 1 ends at t=10.
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 3, 4}));
  ASSERT_EQ(ev.ended.size(), 4u);
  EXPECT_EQ(ev.ended[0], (std::pair<JobId, EndReason>{2, EndReason::kCancelled}));
  ASSERT_EQ(ev.started_at.size(), 3u);
  EXPECT_EQ(ev.started_at[2], 10 * sim::kSecond);
}

// A job with neither estimate nor runtime is planned to run until its
// wall limit kills it, so the head's shadow falls at that kill.
TEST(Backfill, WallLimitIsThePlannedLengthOfLastResort) {
  sim::Engine e;
  BatchScheduler s(e, 10, Backfill::kEasy);
  Events ev(e);
  JobDescriptor walled = job(1, 8);
  walled.max_wall_time = 10 * sim::kSecond;
  s.submit(walled, ev.on_start(), ev.on_end());
  s.submit(job(2, 10, sim::kSecond, sim::kSecond), ev.on_start(),
           ev.on_end());
  // Would end after the shadow (t=10): waits.
  s.submit(job(3, 2, 20 * sim::kSecond, 20 * sim::kSecond), ev.on_start(),
           ev.on_end());
  // Ends by the shadow: backfills now.
  s.submit(job(4, 2, 5 * sim::kSecond, 5 * sim::kSecond), ev.on_start(),
           ev.on_end());
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 4}));
  e.run();
  EXPECT_EQ(ev.started, (std::vector<JobId>{1, 4, 2, 3}));
  EXPECT_EQ(ev.started_at,
            (std::vector<sim::Time>{0, 0, 10 * sim::kSecond,
                                    11 * sim::kSecond}));
  ASSERT_EQ(ev.ended.size(), 4u);
  EXPECT_EQ(ev.ended[1], (std::pair<JobId, EndReason>{
                             1, EndReason::kWallTimeExceeded}));
}

/// Property: under EASY backfill, the head job never starts later than it
/// would under pure FCFS with the same (deterministic) workload.
class BackfillProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BackfillProperty, HeadNeverDelayedVsFcfs) {
  for (int variant = 0; variant < 4; ++variant) {
    sim::Rng rng(GetParam() * 977 + variant);
    // Returns each started job's wait, in start order.
    auto simulate = [&](Backfill mode) {
      sim::Engine e;
      BatchScheduler s(e, 32, mode);
      std::vector<sim::Time> waits;
      sim::Rng local = rng;  // same workload for both modes
      for (JobId id = 1; id <= 40; ++id) {
        const auto count = static_cast<std::int32_t>(local.uniform_int(1, 32));
        const sim::Time runtime = local.uniform_time(1, 100) * sim::kSecond;
        const sim::Time at = local.uniform_time(0, 200) * sim::kSecond;
        e.schedule_at(at, [&s, &e, &waits, id, count, runtime, at] {
          JobDescriptor d;
          d.id = id;
          d.count = count;
          d.runtime = runtime;
          d.estimated_runtime = runtime;  // perfect estimates
          s.submit(
              d, [&e, &waits, at](JobId) { waits.push_back(e.now() - at); },
              nullptr);
        });
      }
      e.run();
      return waits;
    };
    auto fcfs = simulate(Backfill::kNone);
    auto easy = simulate(Backfill::kEasy);
    // Total throughput identical; backfill never strands work.
    ASSERT_EQ(fcfs.size(), easy.size());
    // Mean wait under EASY is never worse than FCFS for this workload
    // (with perfect estimates EASY dominates FCFS in aggregate).
    sim::Time fcfs_total = 0, easy_total = 0;
    for (const sim::Time w : fcfs) fcfs_total += w;
    for (const sim::Time w : easy) easy_total += w;
    EXPECT_LE(easy_total, fcfs_total);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackfillProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---- reservations ---------------------------------------------------------------

TEST(ReservationScheduler, AdmitsAndTracksWindows) {
  sim::Engine e;
  ReservationScheduler s(e, 16);
  auto r1 = s.reserve(10 * sim::kSecond, 20 * sim::kSecond, 8);
  ASSERT_TRUE(r1.is_ok());
  auto r2 = s.reserve(15 * sim::kSecond, 25 * sim::kSecond, 8);
  ASSERT_TRUE(r2.is_ok());
  // A third overlapping 8-processor window cannot fit a 16-way machine.
  EXPECT_FALSE(s.reserve(12 * sim::kSecond, 18 * sim::kSecond, 8).is_ok());
  EXPECT_EQ(s.reserved_at(16 * sim::kSecond), 16);
  EXPECT_EQ(s.reserved_at(5 * sim::kSecond), 0);
}

TEST(ReservationScheduler, RejectsBadWindows) {
  sim::Engine e;
  ReservationScheduler s(e, 16);
  EXPECT_FALSE(s.reserve(10, 10, 4).is_ok());   // empty window
  EXPECT_FALSE(s.reserve(10, 20, 17).is_ok());  // larger than machine
  EXPECT_FALSE(s.reserve(10, 20, 0).is_ok());
}

TEST(ReservationScheduler, BoundJobStartsAtWindowOpen) {
  sim::Engine e;
  ReservationScheduler s(e, 16);
  auto r = s.reserve(10 * sim::kSecond, 20 * sim::kSecond, 8);
  ASSERT_TRUE(r.is_ok());
  Events ev;
  sim::Time started_at = -1;
  ASSERT_TRUE(s.submit_reserved(job(1, 8, 5 * sim::kSecond), r.value().id,
                                [&](JobId) { started_at = e.now(); },
                                ev.on_end())
                  .is_ok());
  e.run();
  EXPECT_EQ(started_at, 10 * sim::kSecond);
  ASSERT_EQ(ev.ended.size(), 1u);
  EXPECT_EQ(ev.ended[0].second, EndReason::kCompleted);
}

TEST(ReservationScheduler, JobKilledAtWindowEnd) {
  sim::Engine e;
  ReservationScheduler s(e, 16);
  auto r = s.reserve(0, 10 * sim::kSecond, 8);
  ASSERT_TRUE(r.is_ok());
  Events ev;
  s.submit_reserved(job(1, 8, 60 * sim::kSecond), r.value().id, ev.on_start(),
                    ev.on_end());
  e.run();
  ASSERT_EQ(ev.ended.size(), 1u);
  EXPECT_EQ(ev.ended[0].second, EndReason::kWallTimeExceeded);
  EXPECT_EQ(e.now(), 10 * sim::kSecond);
}

TEST(ReservationScheduler, BestEffortAvoidsReservedWindow) {
  sim::Engine e;
  ReservationScheduler s(e, 16);
  auto r = s.reserve(5 * sim::kSecond, 15 * sim::kSecond, 16);
  ASSERT_TRUE(r.is_ok());
  Events ev;
  sim::Time started_at = -1;
  // 10-second best-effort job submitted at t=0 would collide with the
  // full-machine window at t=5: it must wait until the window closes.
  s.submit(job(1, 8, 10 * sim::kSecond, 10 * sim::kSecond),
           [&](JobId) { started_at = e.now(); }, ev.on_end());
  e.run();
  EXPECT_EQ(started_at, 15 * sim::kSecond);
}

TEST(ReservationScheduler, BestEffortRunsBesideSmallReservation) {
  sim::Engine e;
  ReservationScheduler s(e, 16);
  ASSERT_TRUE(s.reserve(5 * sim::kSecond, 15 * sim::kSecond, 8).is_ok());
  Events ev;
  sim::Time started_at = -1;
  s.submit(job(1, 8, 10 * sim::kSecond, 10 * sim::kSecond),
           [&](JobId) { started_at = e.now(); }, ev.on_end());
  e.run();
  EXPECT_EQ(started_at, 0);  // 8 + 8 fits throughout
}

TEST(ReservationScheduler, CancelReservationFreesWindow) {
  sim::Engine e;
  ReservationScheduler s(e, 16);
  auto r = s.reserve(5 * sim::kSecond, 15 * sim::kSecond, 16);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(s.cancel_reservation(r.value().id));
  EXPECT_FALSE(s.cancel_reservation(r.value().id));
  Events ev;
  sim::Time started_at = -1;
  s.submit(job(1, 16, 10 * sim::kSecond, 10 * sim::kSecond),
           [&](JobId) { started_at = e.now(); }, ev.on_end());
  e.run();
  EXPECT_EQ(started_at, 0);
}

TEST(ReservationScheduler, BestEffortBackfillsBesideActiveWindow) {
  sim::Engine e;
  ReservationScheduler s(e, 16);
  std::vector<std::pair<JobId, sim::Time>> starts;
  auto record = [&](JobId id) { starts.emplace_back(id, e.now()); };
  Events ev;
  auto r = s.reserve(10 * sim::kSecond, 20 * sim::kSecond, 8);
  ASSERT_TRUE(r.is_ok());
  ASSERT_TRUE(s.submit_reserved(job(100, 8, 5 * sim::kSecond,
                                    5 * sim::kSecond),
                                r.value().id, record, ev.on_end())
                  .is_ok());
  // While the window is ACTIVE: an 8-processor best-effort job fits in
  // the unreserved half and starts immediately...
  e.schedule_at(12 * sim::kSecond, [&] {
    s.submit(job(200, 8, 6 * sim::kSecond, 6 * sim::kSecond), record,
             ev.on_end());
  });
  // ...while a 9-processor one would collide with the window and must
  // wait for the window to close, even after processors free up at t=18.
  e.schedule_at(13 * sim::kSecond, [&] {
    s.submit(job(201, 9, 5 * sim::kSecond, 5 * sim::kSecond), record,
             ev.on_end());
  });
  e.run();
  const std::vector<std::pair<JobId, sim::Time>> want{
      {100, 10 * sim::kSecond},  // bound job at window open
      {200, 12 * sim::kSecond},  // beside the active window
      {201, 20 * sim::kSecond},  // only after the window closes
  };
  EXPECT_EQ(starts, want);
}

TEST(ReservationScheduler, BoundJobsNeverExceedTheReservation) {
  // Three 64-processor jobs bound to one 64-processor window of a
  // 64-processor machine: only the first may be admitted, or the window's
  // opening would start them all at once.
  sim::Engine e;
  ReservationScheduler s(e, 64);
  auto r = s.reserve(10 * sim::kSecond, 100 * sim::kSecond, 64);
  ASSERT_TRUE(r.is_ok());
  const ReservationId rid = r.value().id;
  Events ev;
  std::int32_t peak_busy = 0;
  auto record = [&](JobId) {
    peak_busy = std::max(peak_busy, s.busy_processors());
  };
  ASSERT_TRUE(
      s.submit_reserved(job(1, 64, 5 * sim::kSecond), rid, record, ev.on_end())
          .is_ok());
  EXPECT_EQ(
      s.submit_reserved(job(2, 64, 5 * sim::kSecond), rid, record, ev.on_end())
          .code(),
      util::ErrorCode::kResourceExhausted);
  EXPECT_EQ(
      s.submit_reserved(job(3, 1, 5 * sim::kSecond), rid, record, ev.on_end())
          .code(),
      util::ErrorCode::kResourceExhausted);
  // Once job 1 has ended (t=15), the window's processors are free again.
  e.schedule_at(20 * sim::kSecond, [&] {
    EXPECT_EQ(s.submit_reserved(job(4, 64, 5 * sim::kSecond), rid, record,
                                ev.on_end())
                  .code(),
              util::ErrorCode::kOk);
  });
  e.run();
  EXPECT_EQ(peak_busy, 64);
  const std::vector<std::pair<JobId, EndReason>> want{
      {1, EndReason::kCompleted}, {4, EndReason::kCompleted}};
  EXPECT_EQ(ev.ended, want);
}

TEST(ReservationScheduler, AdmissionConsidersRunningWork) {
  sim::Engine e;
  ReservationScheduler s(e, 16);
  Events ev;
  // A best-effort job holds 16 processors until t=100 (estimated).
  s.submit(job(1, 16, 100 * sim::kSecond, 100 * sim::kSecond), ev.on_start(),
           ev.on_end());
  // A reservation overlapping the estimate must be refused ...
  EXPECT_FALSE(s.reserve(50 * sim::kSecond, 60 * sim::kSecond, 1).is_ok());
  // ... but one after the estimated drain is admitted.
  EXPECT_TRUE(
      s.reserve(150 * sim::kSecond, 160 * sim::kSecond, 16).is_ok());
}

/// Property: reservations admitted by the scheduler never overlap beyond
/// machine capacity, for random workloads.
class ReservationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReservationProperty, AdmittedWindowsNeverOversubscribe) {
  sim::Rng rng(GetParam() * 31 + 7);
  sim::Engine e;
  const std::int32_t capacity = 24;
  ReservationScheduler s(e, capacity);
  std::vector<Reservation> admitted;
  for (int i = 0; i < 200; ++i) {
    const sim::Time start = rng.uniform_time(0, 1000) * sim::kSecond;
    const sim::Time end = start + rng.uniform_time(1, 100) * sim::kSecond;
    const auto count = static_cast<std::int32_t>(rng.uniform_int(1, 16));
    auto r = s.reserve(start, end, count);
    if (r.is_ok()) admitted.push_back(r.value());
  }
  EXPECT_GT(admitted.size(), 10u);
  // Verify no instant is oversubscribed.
  for (const Reservation& probe : admitted) {
    for (sim::Time t : {probe.start, probe.end - 1}) {
      std::int32_t total = 0;
      for (const Reservation& r : admitted) {
        if (r.start <= t && t < r.end) total += r.count;
      }
      EXPECT_LE(total, capacity);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReservationProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- admission: one rule for every scheduler ---------------------------------

// Every submit entry point rejects the same descriptors with the same
// codes, empty or not, and a rejected submit leaves the scheduler as it
// was.  Once filled, each scheduler holds job 1 running and job 2 queued
// (the fork scheduler's job 2 is still forking).
TEST(Admission, EveryEntryPointAppliesTheSameRule) {
  sim::Engine e;
  Events ev;
  BatchScheduler batch(e, 8);
  ReservationScheduler reserving(e, 8);
  ForkScheduler fork(e, sim::kMillisecond, 8);
  const auto window = reserving.reserve(3 * sim::kHour, 4 * sim::kHour, 8);
  ASSERT_TRUE(window.is_ok());

  using Submit = std::function<util::Status(const JobDescriptor&)>;
  struct Entry {
    const char* name;
    Submit submit;
    bool space_shared;
  };
  const std::vector<Entry> entries = {
      {"batch",
       [&](const JobDescriptor& d) {
         return batch.submit(d, ev.on_start(), ev.on_end());
       },
       true},
      {"reservation best-effort",
       [&](const JobDescriptor& d) {
         return reserving.submit(d, ev.on_start(), ev.on_end());
       },
       true},
      {"reservation bound",
       [&](const JobDescriptor& d) {
         return reserving.submit_reserved(d, window.value().id, ev.on_start(),
                                          ev.on_end());
       },
       true},
      {"fork",
       [&](const JobDescriptor& d) {
         return fork.submit(d, ev.on_start(), ev.on_end());
       },
       false},
  };
  std::vector<std::pair<const char*, JobDescriptor>> invalid = {
      {"count 0", job(9, 0)}, {"count -3", job(9, -3)}, {"id 0", job(0, 1)}};
  auto expect_rejected = [&](const char* phase) {
    for (const Entry& entry : entries) {
      for (const auto& [what, d] : invalid) {
        SCOPED_TRACE(std::string(phase) + " " + entry.name + ": " + what);
        EXPECT_EQ(entry.submit(d).code(), util::ErrorCode::kInvalidArgument);
      }
      if (entry.space_shared) {
        SCOPED_TRACE(std::string(phase) + " " + entry.name);
        EXPECT_EQ(entry.submit(job(9, 9)).code(),
                  util::ErrorCode::kResourceExhausted);
      }
    }
  };
  expect_rejected("empty");

  for (LocalScheduler* s : {static_cast<LocalScheduler*>(&batch),
                            static_cast<LocalScheduler*>(&reserving)}) {
    ASSERT_TRUE(s->submit(job(1, 8, sim::kHour), ev.on_start(), ev.on_end())
                    .is_ok());
    ASSERT_TRUE(s->submit(job(2, 8, sim::kHour), ev.on_start(), ev.on_end())
                    .is_ok());
  }
  ASSERT_TRUE(
      fork.submit(job(1, 8, sim::kHour), ev.on_start(), ev.on_end()).is_ok());
  e.run_until(sim::kSecond);
  ASSERT_TRUE(
      fork.submit(job(2, 8, sim::kHour), ev.on_start(), ev.on_end()).is_ok());
  invalid.emplace_back("queued id", job(2, 1));
  invalid.emplace_back("running id", job(1, 1));
  expect_rejected("filled");

  EXPECT_EQ(batch.busy_processors(), 8);
  EXPECT_EQ(batch.queue_length(), 1u);
  EXPECT_EQ(reserving.busy_processors(), 8);
  EXPECT_EQ(reserving.queue_length(), 1u);
  EXPECT_EQ(fork.busy_processors(), 8);
  // The fork scheduler timeshares: no count is too large for it.
  EXPECT_TRUE(fork.submit(job(9, 9), ev.on_start(), ev.on_end()).is_ok());
}

// ---- predictors ------------------------------------------------------------------

TEST(AggregateWorkPredictor, ZeroForIdleMachine) {
  AggregateWorkPredictor p;
  QueueSnapshot snap;
  snap.total_processors = 16;
  snap.busy_processors = 0;
  EXPECT_EQ(p.predict(summarize(snap), 8), 0);
}

TEST(AggregateWorkPredictor, GrowsWithQueuedWork) {
  AggregateWorkPredictor p;
  QueueSnapshot light, heavy;
  light.total_processors = heavy.total_processors = 16;
  light.busy_processors = heavy.busy_processors = 16;
  light.queued.push_back({1, 8, 60 * sim::kSecond, 0});
  heavy.queued.push_back({1, 8, 60 * sim::kSecond, 0});
  heavy.queued.push_back({2, 16, 600 * sim::kSecond, 0});
  EXPECT_GT(p.predict(summarize(heavy), 8), p.predict(summarize(light), 8));
}

// ---- information service -----------------------------------------------------------

TEST(LoadInformationService, PublishesOnInterval) {
  sim::Engine e;
  BatchScheduler s(e, 8);
  LoadInformationService gis(e, 10 * sim::kSecond);
  gis.register_resource("rm", &s);
  gis.start();
  const auto rm = gis.resolve("rm");
  // Initial snapshot at registration: idle.
  EXPECT_EQ(gis.snapshot_ref(rm).value()->busy_processors, 0);
  // Load appears at t=0 but is only visible after the next publish tick.
  s.submit(job(1, 8, 60 * sim::kSecond), nullptr, nullptr);
  e.run_until(5 * sim::kSecond);
  EXPECT_EQ(gis.snapshot_ref(rm).value()->busy_processors, 0);  // stale
  EXPECT_EQ(gis.summary(rm).value().busy_processors, 0);
  EXPECT_EQ(gis.staleness(rm), 5 * sim::kSecond);
  e.run_until(11 * sim::kSecond);
  EXPECT_EQ(gis.snapshot_ref(rm).value()->busy_processors, 8);  // refreshed
  EXPECT_EQ(gis.summary(rm).value().busy_processors, 8);
  gis.stop();
}

TEST(LoadInformationService, UnknownContactFails) {
  sim::Engine e;
  LoadInformationService gis(e, sim::kSecond);
  const auto nope = gis.resolve("nope");
  EXPECT_EQ(nope, 0u);
  EXPECT_FALSE(gis.snapshot_ref(nope).is_ok());
  EXPECT_FALSE(gis.summary(nope).is_ok());
  EXPECT_EQ(gis.staleness(nope), sim::kTimeNever);
}

// ---- publication: the departure journal -------------------------------------

bool same_snapshot(const QueueSnapshot& a, const QueueSnapshot& b) {
  return a.taken_at == b.taken_at &&
         a.total_processors == b.total_processors &&
         a.busy_processors == b.busy_processors && a.queued == b.queued;
}

/// One BatchScheduler under random submits, completes and cancels, whose
/// start callbacks also submit, cancel, complete or publish re-entrantly,
/// published by a service at random instants.  Each round keeps the
/// snapshot() it would have copied; every check compares the service's
/// snapshot_ref() and the scheduler's rebuild with it.
struct JournalWorld {
  JournalWorld(std::uint64_t seed, Backfill mode)
      : rng(seed), s(e, 16, mode), service(e, sim::kHour) {
    service.register_resource("rm", &s);
    id = service.resolve("rm");
    keep_round();
  }

  void keep_round() {
    published = service.published_version(id);
    at_mark = s.snapshot();
    mark_version = s.version();
  }

  void check() {
    ++checks;
    auto ref = service.snapshot_ref(id);
    ASSERT_TRUE(ref.is_ok());
    EXPECT_TRUE(same_snapshot(*ref.value(), at_mark))
        << "snapshot_ref at t=" << e.now() << ": " << ref.value()->queued.size()
        << " queued, the round copied " << at_mark.queued.size();
    EXPECT_TRUE(s.published_queue(mark_version) == at_mark.queued)
        << "rebuild at t=" << e.now();
  }

  void round() {
    check();  // just before the round, when the journal is longest
    service.publish_now();
    if (service.published_version(id) != published) keep_round();
  }

  JobId any_id() {  // may name a job that ended, or none yet
    return static_cast<JobId>(
        rng.uniform_int(1, static_cast<std::int64_t>(next_id)));
  }

  void submit() {
    JobDescriptor d;
    d.id = next_id++;
    d.count = static_cast<std::int32_t>(rng.uniform_int(1, 16));
    if (rng.chance(0.7)) d.runtime = rng.uniform_time(1, 30) * sim::kMinute;
    if (!rng.chance(0.2)) {
      d.estimated_runtime = rng.uniform_time(1, 40) * sim::kMinute;
    }
    if (rng.chance(0.1)) {
      d.max_wall_time = rng.uniform_time(5, 60) * sim::kMinute;
    }
    const JobId job_id = d.id;
    ASSERT_TRUE(s.submit(d, [this](JobId) { on_start(); }, nullptr).is_ok());
    if (d.runtime == 0) {
      e.schedule_after(rng.uniform_time(1, 90) * sim::kMinute,
                       [this, job_id] { s.complete(job_id); });
    }
    if (rng.chance(0.2)) {
      e.schedule_after(rng.uniform_time(0, 30) * sim::kMinute,
                       [this, job_id] { s.cancel(job_id); });
    }
  }

  void on_start() {
    const double p = rng.next_double();
    if (p < 0.05) {
      submit();
    } else if (p < 0.10) {
      s.cancel(any_id());
    } else if (p < 0.15) {
      s.complete(any_id());
    } else if (p < 0.17) {
      round();
    }
  }

  sim::Rng rng;
  sim::Engine e;
  BatchScheduler s;
  LoadInformationService service;
  LoadInformationService::ContactId id = 0;
  JobId next_id = 1;
  std::uint64_t published = 0;  // the service's version of the kept round
  QueueSnapshot at_mark;        // what the round would have copied
  std::uint64_t mark_version = 0;
  int checks = 0;
};

TEST(PublishedQueue, RebuildEqualsTheRoundsCopy) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    for (Backfill mode : {Backfill::kNone, Backfill::kEasy}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (mode == Backfill::kEasy ? " easy" : " fcfs"));
      JournalWorld w(seed, mode);
      const sim::Time horizon = 3 * sim::kHour;
      for (int i = 0; i < 200; ++i) {
        w.e.schedule_at(w.rng.uniform_time(0, horizon), [&w] { w.submit(); });
      }
      for (int i = 0; i < 40; ++i) {
        w.e.schedule_at(w.rng.uniform_time(0, horizon), [&w] { w.round(); });
      }
      for (int i = 0; i < 80; ++i) {
        w.e.schedule_at(w.rng.uniform_time(0, horizon), [&w] { w.check(); });
      }
      w.e.run();
      w.round();
      EXPECT_GE(w.checks, 120);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

/// Forwards to a scheduler, publication hooks included, counting the calls
/// the service makes through it.
class CountingScheduler final : public LocalScheduler {
 public:
  explicit CountingScheduler(LocalScheduler& inner) : inner_(&inner) {}

  util::Status submit(const JobDescriptor& job, StartFn on_start,
                      EndFn on_end) override {
    return inner_->submit(job, std::move(on_start), std::move(on_end));
  }
  void complete(JobId id) override { inner_->complete(id); }
  bool cancel(JobId id) override { return inner_->cancel(id); }
  std::int32_t total_processors() const override {
    return inner_->total_processors();
  }
  std::int32_t busy_processors() const override {
    return inner_->busy_processors();
  }
  std::size_t queue_length() const override { return inner_->queue_length(); }
  QueueSnapshot snapshot() const override {
    ++snapshots;
    return inner_->snapshot();
  }
  QueueSummary summary() const override { return inner_->summary(); }
  std::uint64_t version() const override { return inner_->version(); }
  void mark_published() const override {
    ++marks;
    inner_->mark_published();
  }
  std::vector<QueuedJobInfo> published_queue(
      std::uint64_t version) const override {
    ++rebuilds;
    return inner_->published_queue(version);
  }
  std::string policy() const override { return inner_->policy(); }

  mutable int snapshots = 0;
  mutable int marks = 0;
  mutable int rebuilds = 0;

 private:
  LocalScheduler* inner_;
};

TEST(PublishedQueue, RoundsCopyNothingAndQueriesRebuildOnce) {
  sim::Engine e;
  BatchScheduler batch(e, 8, Backfill::kEasy);
  CountingScheduler s(batch);
  LoadInformationService service(e, 30 * sim::kSecond);
  service.register_resource("rm", &s);
  const auto id = service.resolve("rm");
  // A churning queue: 4 jobs a round, each 8-wide for 40 s, so the version
  // moves every round and the queue keeps growing.
  JobId next = 1;
  for (int i = 0; i < 200; ++i) {
    e.schedule_at(i * 7500 * sim::kMillisecond, [&s, &next] {
      ASSERT_TRUE(s.submit(job(next, 8, 40 * sim::kSecond, 40 * sim::kSecond),
                           nullptr, nullptr)
                      .is_ok());
      ++next;
    });
  }
  service.start();
  e.run_until(25 * sim::kMinute);
  EXPECT_EQ(service.stats().publish_rounds, 50u);
  EXPECT_EQ(service.stats().snapshots_refreshed, 51u);  // + registration
  EXPECT_EQ(s.marks, 51);
  EXPECT_EQ(s.snapshots, 0);
  EXPECT_EQ(s.rebuilds, 0);
  ASSERT_GT(s.queue_length(), 10u);

  // Two queries in one round share one rebuild of the round's queue, as
  // long as its summary says.
  e.run_until(e.now() + 10 * sim::kSecond);
  const auto first = service.snapshot_ref(id);
  const auto second = service.snapshot_ref(id);
  ASSERT_TRUE(first.is_ok() && second.is_ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(s.rebuilds, 1);
  EXPECT_EQ(s.snapshots, 0);
  EXPECT_EQ(first.value()->queued.size(),
            service.summary(id).value().queue_length);
  service.stop();
}

TEST(LoadInformationServiceDeathTest, RejectsNonPositiveInterval) {
  // Every consumer reads published, possibly stale state, so snapshots
  // must be published on a positive interval.
  sim::Engine e;
  EXPECT_DEATH(LoadInformationService(e, 0), "positive publish interval");
  EXPECT_DEATH(LoadInformationService(e, -sim::kSecond),
               "positive publish interval");
}

TEST(BatchSchedulerDeathTest, HistoryCapacityAcceptsOnlyZero) {
  // The setter survives only for the benchmark harness, which passes 0;
  // the scheduler keeps no history, so every other value aborts in every
  // build.
  sim::Engine e;
  BatchScheduler s(e, 4);
  s.set_history_capacity(0);
  EXPECT_DEATH(s.set_history_capacity(1), "keeps no wait history");
  EXPECT_DEATH(s.set_history_capacity(static_cast<std::size_t>(-1)),
               "keeps no wait history");
}

}  // namespace
}  // namespace grid::sched
