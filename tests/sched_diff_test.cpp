// Differential test: BatchScheduler (profile-based EASY backfill) against
// ReferenceBackfill (the scan-based oracle transcribed from the seed).
//
// Each trial builds the same randomized workload twice — one world per
// implementation — runs both event loops to completion, and the main
// thread asserts that every observable is identical: submit verdicts,
// start order and start times, end order/times/reasons, cancel results,
// the summary after every submit (queue length and queued work, which
// checks the O(1) bookkeeping against the oracle's O(n) rescans), and the
// final queue.  Workloads mix widths, estimate error (over, under,
// absent), zero runtimes, wall-time kills, cancels of queued and running
// jobs, and duplicate submissions.
//
// Trials fan out over sim::TrialPool; per the pool contract the trial
// bodies only build transcripts — all EXPECTs happen on the main thread.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sched/batch.hpp"
#include "sched/reference.hpp"
#include "simkit/engine.hpp"
#include "simkit/rng.hpp"
#include "simkit/trialpool.hpp"

namespace grid::sched {
namespace {

struct JobSpec {
  JobDescriptor desc;
  sim::Time submit_at = 0;
  sim::Time cancel_at = 0;  // 0 = never cancelled
};

struct Workload {
  std::int32_t processors = 0;
  std::vector<JobSpec> jobs;
};

Workload make_workload(std::uint64_t seed, std::size_t job_count) {
  sim::Rng rng(0x5eedfeedULL ^ seed * 0x9e3779b97f4a7c15ULL);
  Workload w;
  w.processors = static_cast<std::int32_t>(32 << rng.uniform_int(0, 3));
  w.jobs.reserve(job_count);
  sim::Time clock = 0;
  for (std::size_t i = 0; i < job_count; ++i) {
    JobSpec j;
    // Arrivals outpace service for long stretches so the queue gets deep.
    clock += rng.uniform_time(0, 60);
    j.submit_at = clock;
    j.desc.id = static_cast<JobId>(i + 1);
    if (i > 0 && i % 97 == 0) {
      j.desc.id = static_cast<JobId>(rng.uniform_int(
          1, static_cast<std::int64_t>(i)));  // duplicate: both must reject
    }
    // Width skewed small, with occasional near-machine-wide jobs that
    // block the head and open backfill windows.
    const std::int64_t width_class = rng.uniform_int(0, 9);
    if (width_class == 0) {
      j.desc.count = static_cast<std::int32_t>(
          rng.uniform_int(w.processors / 2, w.processors));
    } else {
      j.desc.count = static_cast<std::int32_t>(
          rng.uniform_int(1, std::max(2, w.processors / 8)));
    }
    // Runtime: mostly finite, sometimes zero (runs until cancelled).
    j.desc.runtime = rng.chance(0.05) ? 0 : rng.uniform_time(50, 4000);
    // Estimate error: absent, exact, optimistic (job runs past it), or
    // pessimistic.
    switch (rng.uniform_int(0, 3)) {
      case 0:
        j.desc.estimated_runtime = 0;
        break;
      case 1:
        j.desc.estimated_runtime = j.desc.runtime;
        break;
      case 2:
        j.desc.estimated_runtime =
            static_cast<sim::Time>(static_cast<double>(j.desc.runtime) *
                                   rng.uniform(0.3, 0.95));
        break;
      default:
        j.desc.estimated_runtime =
            static_cast<sim::Time>(static_cast<double>(j.desc.runtime) *
                                   rng.uniform(1.05, 3.0));
        break;
    }
    if (rng.chance(0.08)) {
      j.desc.max_wall_time = rng.uniform_time(50, 5000);  // sometimes kills
    }
    if (rng.chance(0.10)) {
      j.cancel_at = j.submit_at + rng.uniform_time(1, 6000);
    }
    w.jobs.push_back(std::move(j));
  }
  return w;
}

struct StartRec {
  JobId id = 0;
  sim::Time at = 0;

  bool operator==(const StartRec&) const = default;
};

struct EndRec {
  JobId id = 0;
  sim::Time at = 0;
  int reason = 0;

  bool operator==(const EndRec&) const = default;
};

/// The summary fields a scheduler maintains itself.
struct SummaryRec {
  std::int32_t busy = 0;
  std::uint32_t queue_length = 0;
  std::int64_t queued_work = 0;

  bool operator==(const SummaryRec&) const = default;
};

struct Transcript {
  std::vector<bool> accepted;
  std::vector<StartRec> starts;
  std::vector<EndRec> ends;
  std::vector<bool> cancel_results;
  std::vector<SummaryRec> summaries;  // one per submit, after it
  std::vector<JobId> final_queue;
  std::int32_t final_busy = 0;
  bool profile_ok = true;  // BatchScheduler worlds audit their profile
};

template <typename Sched>
Transcript run_world(const Workload& w, Backfill mode) {
  sim::Engine eng;
  Sched sched(eng, w.processors, mode);
  Transcript t;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const JobSpec& j = w.jobs[i];
    eng.schedule_at(j.submit_at, [&w, &sched, &eng, &t, i] {
      const util::Status st = sched.submit(
          w.jobs[i].desc,
          [&t, &eng](JobId id) { t.starts.push_back(StartRec{id, eng.now()}); },
          [&t, &eng](JobId id, EndReason r) {
            t.ends.push_back(EndRec{id, eng.now(), static_cast<int>(r)});
          });
      t.accepted.push_back(st.is_ok());
      const QueueSummary sum = sched.summary();
      t.summaries.push_back(
          SummaryRec{sum.busy_processors, sum.queue_length, sum.queued_work});
    });
    if (j.cancel_at > 0) {
      eng.schedule_at(j.cancel_at, [&w, &sched, &t, i] {
        t.cancel_results.push_back(sched.cancel(w.jobs[i].desc.id));
      });
    }
  }
  eng.run();
  const QueueSnapshot s = sched.snapshot();
  for (const QueuedJobInfo& q : s.queued) t.final_queue.push_back(q.id);
  t.final_busy = sched.busy_processors();
  if constexpr (std::is_same_v<Sched, BatchScheduler>) {
    t.profile_ok = sched.profile().invariants_ok();
  }
  return t;
}

struct TrialResult {
  Transcript fast;
  Transcript oracle;
};

void expect_equal(const Transcript& fast, const Transcript& oracle,
                  std::size_t seed, const char* mode) {
  SCOPED_TRACE(std::string("seed ") + std::to_string(seed) + " mode " + mode);
  EXPECT_TRUE(fast.profile_ok);
  EXPECT_EQ(fast.accepted, oracle.accepted);
  ASSERT_EQ(fast.starts.size(), oracle.starts.size());
  for (std::size_t i = 0; i < fast.starts.size(); ++i) {
    ASSERT_EQ(fast.starts[i], oracle.starts[i]) << "start #" << i;
  }
  ASSERT_EQ(fast.ends.size(), oracle.ends.size());
  for (std::size_t i = 0; i < fast.ends.size(); ++i) {
    ASSERT_EQ(fast.ends[i], oracle.ends[i]) << "end #" << i;
  }
  EXPECT_EQ(fast.cancel_results, oracle.cancel_results);
  ASSERT_EQ(fast.summaries.size(), oracle.summaries.size());
  for (std::size_t i = 0; i < fast.summaries.size(); ++i) {
    ASSERT_EQ(fast.summaries[i], oracle.summaries[i])
        << "summary after submit #" << i << " diverged: queued_work "
        << fast.summaries[i].queued_work << " vs "
        << oracle.summaries[i].queued_work << ", queue_length "
        << fast.summaries[i].queue_length << " vs "
        << oracle.summaries[i].queue_length;
  }
  EXPECT_EQ(fast.final_queue, oracle.final_queue);
  EXPECT_EQ(fast.final_busy, oracle.final_busy);
}

void run_differential(Backfill mode, const char* label, std::size_t seeds,
                      std::size_t job_count) {
  sim::TrialPool pool;
  const std::vector<TrialResult> results =
      pool.map<TrialResult>(seeds, [&](std::size_t seed) {
        const Workload w = make_workload(seed, job_count);
        TrialResult r;
        r.fast = run_world<BatchScheduler>(w, mode);
        r.oracle = run_world<ReferenceBackfill>(w, mode);
        return r;
      });
  for (std::size_t seed = 0; seed < results.size(); ++seed) {
    expect_equal(results[seed].fast, results[seed].oracle, seed, label);
  }
}

TEST(SchedDiff, EasyBackfillMatchesOracleAcrossSeeds) {
  run_differential(Backfill::kEasy, "easy", 16, 1000);
}

TEST(SchedDiff, FcfsMatchesOracleAcrossSeeds) {
  run_differential(Backfill::kNone, "fcfs", 16, 1000);
}

TEST(SchedDiff, EasyBackfillMatchesOracleOnDeepQueue) {
  // One deeper world: arrivals pile thousands of jobs behind a blocked
  // head, the regime the profile rewrite exists for.
  run_differential(Backfill::kEasy, "easy-deep", 2, 4000);
}

}  // namespace
}  // namespace grid::sched
