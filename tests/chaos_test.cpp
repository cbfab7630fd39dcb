// Seeded chaos suite: GRAB and DUROC ensembles under injected failures.
//
// Each trial builds a small grid, arms the full fault-tolerance stack
// (RPC retries, barrier check-in re-send, heartbeat failure detection),
// runs one co-allocation under a failure schedule drawn from a seeded RNG,
// and asserts the protocol invariants that must hold no matter what the
// network does:
//
//   1. exactly one terminal callback per request;
//   2. no release after the terminal callback;
//   3. at most one release;
//   4. in a quiet network the failure detector never kills a healthy
//      subjob.
//
// Success is NOT an invariant — under heavy loss an abort is a correct
// outcome — but every run must be deterministic per seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/behaviors.hpp"
#include "app/failure.hpp"
#include "core/coallocator.hpp"
#include "core/grab.hpp"
#include "core/monitor.hpp"
#include "simkit/trialpool.hpp"
#include "testbed/grid.hpp"

namespace grid {
namespace {

constexpr int kSeeds = 32;
const sim::Time kHorizon = 20 * sim::kMinute;
const sim::Time kStartupTimeout = 2 * sim::kMinute;

enum class Schedule { kCrash, kPartition, kLossy, kFlapping };

const char* to_string(Schedule s) {
  switch (s) {
    case Schedule::kCrash:
      return "crash";
    case Schedule::kPartition:
      return "partition";
    case Schedule::kLossy:
      return "lossy";
    case Schedule::kFlapping:
      return "flapping";
  }
  return "?";
}

/// What one trial observed; equality is the determinism check.
struct Outcome {
  int terminals = 0;
  int releases = 0;
  bool release_after_terminal = false;
  bool ok = false;             // terminal status was OK
  sim::Time released_at = -1;  // virtual release time, -1 if none
  sim::Time finished_at = -1;  // virtual time of the terminal callback

  bool operator==(const Outcome&) const = default;
};

core::HeartbeatConfig chaos_heartbeats() {
  core::HeartbeatConfig config;
  config.interval = 2 * sim::kSecond;
  config.beat_timeout = sim::kSecond;
  config.misses_to_dead = 3;
  return config;
}

struct ChaosTrial {
  std::unique_ptr<testbed::Grid> grid;
  app::BarrierStats stats;
  std::unique_ptr<core::Coallocator> mech;
  std::unique_ptr<app::FailureInjector> inject;
  std::vector<std::string> sites;

  ChaosTrial(int hosts, std::uint64_t seed) {
    grid = std::make_unique<testbed::Grid>(testbed::CostModel::paper(), seed);
    for (int i = 1; i <= hosts; ++i) {
      sites.push_back("site" + std::to_string(i));
      grid->add_host(sites.back(), 16);
    }
    app::StartupProfile profile;
    profile.init_delay = 50 * sim::kMillisecond;
    profile.init_jitter = 100 * sim::kMillisecond;
    profile.run_time = 30 * sim::kSecond;
    profile.checkin_resend = 2 * sim::kSecond;
    app::install_app(grid->executables(), "sim", profile, &stats,
                     seed * 7 + 1);
    core::RequestConfig defaults;
    defaults.rpc_timeout = 5 * sim::kSecond;
    defaults.startup_timeout = kStartupTimeout;
    mech = grid->make_coallocator("agent", "/CN=chaos", defaults);
    mech->gram().set_retry_policy(net::RetryPolicy{.jitter_seed = seed});
    inject = std::make_unique<app::FailureInjector>(grid->network());
  }

  /// Attaches a started heartbeat detector to request `id`: abort-fast for
  /// GRAB, early dead-resource detection for DUROC.
  std::unique_ptr<core::HeartbeatDetector> watch(core::RequestId id) {
    auto detector = std::make_unique<core::HeartbeatDetector>(
        *mech, id, chaos_heartbeats());
    detector->start();
    return detector;
  }

  std::string rsl(const std::vector<std::string>& start_types) const {
    std::vector<std::string> subs;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      subs.push_back(testbed::rsl_subjob(sites[i], 4, "sim",
                                         start_types[i % start_types.size()]));
    }
    return testbed::rsl_multi(subs);
  }

  /// Draws one failure schedule from `rng` and schedules it.  Targets the
  /// agent<->gatekeeper paths, which is where the co-allocation protocol
  /// actually lives.
  void apply(Schedule schedule, sim::Rng& rng) {
    const net::NodeId agent = mech->endpoint().id();
    const auto victim = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(sites.size()) - 1));
    const net::NodeId contact = grid->host(sites[victim])->contact();
    const sim::Time from = rng.uniform_time(sim::kSecond, 8 * sim::kSecond);
    switch (schedule) {
      case Schedule::kCrash: {
        inject->crash_at(contact, from);
        if (rng.chance(0.5)) {
          inject->restore_at(
              contact, from + rng.uniform_time(5 * sim::kSecond,
                                               20 * sim::kSecond));
        }
        return;
      }
      case Schedule::kPartition: {
        const sim::Time until =
            from + rng.uniform_time(5 * sim::kSecond, 30 * sim::kSecond);
        inject->partition_between(agent, contact, from, until);
        return;
      }
      case Schedule::kLossy: {
        const sim::Time until =
            from + rng.uniform_time(20 * sim::kSecond, 60 * sim::kSecond);
        inject->lossy_window(rng.uniform(0.05, 0.3), from, until);
        if (rng.chance(0.5)) {
          // Nested burst of heavier loss.
          inject->lossy_window(rng.uniform(0.3, 0.6), from + sim::kSecond,
                               from + 10 * sim::kSecond);
        }
        return;
      }
      case Schedule::kFlapping: {
        const sim::Time until =
            from + rng.uniform_time(10 * sim::kSecond, 40 * sim::kSecond);
        inject->flap_link(agent, contact, from, until,
                          rng.uniform_time(sim::kSecond, 4 * sim::kSecond));
        return;
      }
    }
  }
};

Outcome run_grab_trial(Schedule schedule, std::uint64_t seed) {
  ChaosTrial trial(3, seed);
  core::GrabAllocator grab(*trial.mech);
  Outcome out;
  auto allocated = grab.allocate(
      trial.rsl({"required"}),
      {.on_subjob = nullptr,
       .on_released =
           [&](const core::RuntimeConfig&) {
             if (out.terminals > 0) out.release_after_terminal = true;
             ++out.releases;
             out.released_at = trial.grid->engine().now();
           },
       .on_terminal =
           [&](const util::Status& status) {
             ++out.terminals;
             out.ok = status.is_ok();
             out.finished_at = trial.grid->engine().now();
           }});
  EXPECT_TRUE(allocated.is_ok());
  if (!allocated.is_ok()) return out;
  auto detector = trial.watch(allocated.value());
  sim::Rng rng(seed ^ 0xc4a05);
  trial.apply(schedule, rng);
  trial.grid->run_until(kHorizon);
  if (out.terminals == 0) {
    // The request survived the horizon (e.g. waiting out a timeout that
    // message loss keeps extending); the control operation must still
    // produce exactly one terminal callback.
    if (auto* request = trial.mech->find_request(allocated.value())) {
      request->kill();
    }
    trial.grid->run_until(kHorizon + 2 * sim::kMinute);
  }
  return out;
}

Outcome run_duroc_trial(Schedule schedule, std::uint64_t seed) {
  ChaosTrial trial(4, seed);
  Outcome out;
  core::RequestCallbacks cbs;
  cbs.on_released = [&](const core::RuntimeConfig&) {
    if (out.terminals > 0) out.release_after_terminal = true;
    ++out.releases;
    out.released_at = trial.grid->engine().now();
  };
  cbs.on_terminal = [&](const util::Status& status) {
    ++out.terminals;
    out.ok = status.is_ok();
    out.finished_at = trial.grid->engine().now();
  };
  core::CoallocationRequest* req = trial.mech->create_request(std::move(cbs));
  // Mixed categories: one failure-sensitive subjob, one repairable, two
  // that must never block or kill the ensemble.
  EXPECT_TRUE(req->add_rsl(trial.rsl({"required", "interactive", "optional",
                                      "optional"}))
                  .is_ok());
  req->start();
  EXPECT_TRUE(req->commit().is_ok());
  auto detector = trial.watch(req->id());
  sim::Rng rng(seed ^ 0xd00cbeef);
  trial.apply(schedule, rng);
  trial.grid->run_until(kHorizon);
  if (out.terminals == 0) {
    req->kill();
    trial.grid->run_until(kHorizon + 2 * sim::kMinute);
  }
  return out;
}

void check_invariants(const Outcome& out, Schedule schedule,
                      std::uint64_t seed, const char* flavor) {
  SCOPED_TRACE(std::string(flavor) + "/" + to_string(schedule) + "/seed=" +
               std::to_string(seed));
  EXPECT_EQ(out.terminals, 1);
  EXPECT_LE(out.releases, 1);
  EXPECT_FALSE(out.release_after_terminal);
  if (out.ok) {
    // A successful computation must actually have been released.
    EXPECT_EQ(out.releases, 1);
  }
}

constexpr Schedule kAllSchedules[] = {Schedule::kCrash, Schedule::kPartition,
                                      Schedule::kLossy, Schedule::kFlapping};

/// Runs the full 4-schedule x kSeeds matrix through `trial` on the pool;
/// every trial is a fully isolated world, so the fan-out cannot perturb
/// per-seed determinism.  Outcomes come back in (schedule, seed) order and
/// the invariants are checked on the main thread where SCOPED_TRACE works.
template <typename Trial>
std::vector<Outcome> sweep_matrix(sim::TrialPool& pool, Trial trial) {
  return pool.map<Outcome>(std::size(kAllSchedules) * kSeeds,
                           [&](std::size_t i) {
                             const Schedule schedule = kAllSchedules[i / kSeeds];
                             const std::uint64_t seed = i % kSeeds + 1;
                             return trial(schedule, seed);
                           });
}

TEST(ChaosSweep, GrabInvariantsHoldUnderAllSchedules) {
  sim::TrialPool pool;
  const std::vector<Outcome> outcomes = sweep_matrix(pool, run_grab_trial);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    check_invariants(outcomes[i], kAllSchedules[i / kSeeds], i % kSeeds + 1,
                     "grab");
  }
}

TEST(ChaosSweep, DurocInvariantsHoldUnderAllSchedules) {
  sim::TrialPool pool;
  const std::vector<Outcome> outcomes = sweep_matrix(pool, run_duroc_trial);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    check_invariants(outcomes[i], kAllSchedules[i / kSeeds], i % kSeeds + 1,
                     "duroc");
  }
}

TEST(ChaosSweep, TrialsAreDeterministicPerSeed) {
  for (Schedule schedule : {Schedule::kCrash, Schedule::kLossy}) {
    for (std::uint64_t seed : {3u, 11u, 27u}) {
      EXPECT_EQ(run_grab_trial(schedule, seed),
                run_grab_trial(schedule, seed));
      EXPECT_EQ(run_duroc_trial(schedule, seed),
                run_duroc_trial(schedule, seed));
    }
  }
}

TEST(ChaosSweep, ParallelSweepIsByteIdenticalToSerial) {
  // The whole point of TrialPool: the parallel ensemble must be
  // indistinguishable from the serial loop it replaced, outcome by
  // outcome, regardless of worker count or completion order.
  auto serial = [&](auto trial) {
    std::vector<Outcome> out;
    for (Schedule schedule : kAllSchedules) {
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        out.push_back(trial(schedule, seed));
      }
    }
    return out;
  };
  sim::TrialPool wide(4);  // oversubscribed on small machines, on purpose
  EXPECT_EQ(serial(run_grab_trial), sweep_matrix(wide, run_grab_trial));
  EXPECT_EQ(serial(run_duroc_trial), sweep_matrix(wide, run_duroc_trial));
}

// ---- failure detector properties -------------------------------------------

TEST(ChaosDetector, QuietNetworkProducesNoVerdicts) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ChaosTrial trial(3, seed);
    core::GrabAllocator grab(*trial.mech);
    Outcome out;
    auto allocated = grab.allocate(
        trial.rsl({"required"}),
        {.on_subjob = nullptr,
         .on_released = [&](const core::RuntimeConfig&) { ++out.releases; },
         .on_terminal =
             [&](const util::Status& status) {
               ++out.terminals;
               out.ok = status.is_ok();
             }});
    ASSERT_TRUE(allocated.is_ok());
    auto detector = trial.watch(allocated.value());
    trial.grid->run_until(kHorizon);
    // No injected failures: the ensemble must succeed and the detector
    // must never have issued a verdict against a healthy subjob.
    EXPECT_EQ(out.terminals, 1);
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(detector->verdicts(), 0u);
    EXPECT_GT(detector->beats_sent(), 0u);
  }
}

TEST(ChaosDetector, SlowNodeIsNotKilledWhileTimeoutsStillExpire) {
  // A latency spike shorter than the beat timeout must not trigger a
  // verdict: slow is not dead.
  ChaosTrial trial(2, 99);
  core::GrabAllocator grab(*trial.mech);
  trial.inject->slow_node(trial.grid->host("site2")->contact(),
                          200 * sim::kMillisecond, sim::kSecond,
                          30 * sim::kSecond);
  Outcome out;
  auto allocated = grab.allocate(
      trial.rsl({"required"}),
      {.on_subjob = nullptr,
       .on_released = [&](const core::RuntimeConfig&) { ++out.releases; },
       .on_terminal =
           [&](const util::Status& status) {
             ++out.terminals;
             out.ok = status.is_ok();
           }});
  ASSERT_TRUE(allocated.is_ok());
  auto detector = trial.watch(allocated.value());  // beat timeout 1 s
  trial.grid->run_until(kHorizon);
  EXPECT_EQ(out.terminals, 1);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(detector->verdicts(), 0u);
}

TEST(ChaosDetector, PartitionedManagerAbortsFastInGrab) {
  // Healthy but slow-starting application; the partition of one
  // gatekeeper produces no event at all, so without heartbeats the abort
  // would wait for the full startup deadline.  The detector turns the
  // silence into an abort in ~interval * misses_to_dead.
  ChaosTrial trial(2, 7);
  // Slow startup so detection, not the barrier, decides the outcome.
  app::StartupProfile profile;
  profile.init_delay = 60 * sim::kSecond;
  profile.checkin_resend = 2 * sim::kSecond;
  app::install_app(trial.grid->executables(), "slowsim", profile,
                   &trial.stats, 17);
  core::GrabAllocator grab(*trial.mech);
  std::vector<std::string> subs = {
      testbed::rsl_subjob("site1", 4, "slowsim", "required"),
      testbed::rsl_subjob("site2", 4, "slowsim", "required")};
  Outcome out;
  auto allocated = grab.allocate(
      testbed::rsl_multi(subs),
      {.on_subjob = nullptr,
       .on_released = [&](const core::RuntimeConfig&) { ++out.releases; },
       .on_terminal =
           [&](const util::Status& status) {
             ++out.terminals;
             out.ok = status.is_ok();
             out.finished_at = trial.grid->engine().now();
           }});
  ASSERT_TRUE(allocated.is_ok());
  auto detector = trial.watch(allocated.value());
  trial.inject->partition_between(trial.mech->endpoint().id(),
                                  trial.grid->host("site2")->contact(),
                                  5 * sim::kSecond, kHorizon);
  trial.grid->run_until(kHorizon);
  EXPECT_EQ(out.terminals, 1);
  EXPECT_FALSE(out.ok);  // atomicity preserved: everything rolled back
  EXPECT_EQ(out.releases, 0);
  EXPECT_GE(detector->verdicts(), 1u);
  // Abort-fast: far earlier than the startup deadline.
  EXPECT_LT(out.finished_at, 30 * sim::kSecond);
  EXPECT_LT(out.finished_at, kStartupTimeout);
}

TEST(ChaosDetector, OptionalDeathAfterReleaseDegradesDuroc) {
  // Post-commit graceful degradation: an optional subjob's manager dies
  // after release; the subjob reports kFailed while the request stays
  // released, and the ensemble runs to completion.
  ChaosTrial trial(2, 21);
  Outcome out;
  bool degraded = false;
  core::CoallocationRequest* req = nullptr;
  core::RequestCallbacks user;
  user.on_subjob = [&](core::SubjobHandle, core::SubjobState state,
                       const util::Status&) {
    if (state == core::SubjobState::kFailed &&
        req->state() == core::RequestState::kReleased) {
      degraded = true;
    }
  };
  user.on_released = [&](const core::RuntimeConfig&) {
    ++out.releases;
    out.released_at = trial.grid->engine().now();
  };
  user.on_terminal = [&](const util::Status& status) {
    ++out.terminals;
    out.ok = status.is_ok();
  };
  req = trial.mech->create_request(std::move(user));
  std::vector<std::string> subs = {
      testbed::rsl_subjob("site1", 4, "sim", "required"),
      testbed::rsl_subjob("site2", 4, "sim", "optional")};
  ASSERT_TRUE(req->add_rsl(testbed::rsl_multi(subs)).is_ok());
  req->start();
  ASSERT_TRUE(req->commit().is_ok());
  auto detector = trial.watch(req->id());
  // The apps release within ~1 s and run for 30 s; cut the optional
  // manager off well inside the run window.
  trial.inject->partition_between(trial.mech->endpoint().id(),
                                  trial.grid->host("site2")->contact(),
                                  10 * sim::kSecond, kHorizon);
  trial.grid->run_until(kHorizon);
  EXPECT_EQ(out.releases, 1);
  EXPECT_EQ(out.terminals, 1);
  EXPECT_TRUE(out.ok);  // the ensemble survived the optional death
  EXPECT_GE(detector->verdicts(), 1u);
  EXPECT_TRUE(degraded);
}

// ---- recovery --------------------------------------------------------------

TEST(ChaosRecovery, RestoredGatekeeperServesLaterGrab) {
  // The injector crashes site1's gatekeeper at 1 s and restores it at 5 s.
  // A GRAB request over all three sites committed at 10 s must find it
  // serving again: a restore is a recovery, not a silent death.
  ChaosTrial trial(3, 1);
  const net::NodeId site1 = trial.grid->host("site1")->contact();
  trial.inject->crash_at(site1, sim::kSecond);
  trial.inject->restore_at(site1, 5 * sim::kSecond);
  core::GrabAllocator grab(*trial.mech);
  Outcome out;
  trial.grid->engine().schedule_at(10 * sim::kSecond, [&] {
    auto allocated = grab.allocate(
        trial.rsl({"required"}),
        {.on_subjob = nullptr,
         .on_released = [&](const core::RuntimeConfig&) { ++out.releases; },
         .on_terminal =
             [&](const util::Status& status) {
               ++out.terminals;
               out.ok = status.is_ok();
             }});
    EXPECT_TRUE(allocated.is_ok());
  });
  trial.grid->run_until(kHorizon);
  EXPECT_EQ(out.releases, 1);
  EXPECT_EQ(out.terminals, 1);
  EXPECT_TRUE(out.ok);
}

// ---- check-in re-send ------------------------------------------------------

/// Check-in phase under a total-loss window covering the moment every
/// process enters the barrier.  `resend_period` arms the re-transmission.
Outcome run_checkin_loss_trial(sim::Time resend_period, std::uint64_t seed) {
  ChaosTrial trial(2, seed);
  app::StartupProfile profile;
  profile.init_delay = 40 * sim::kSecond;  // check-ins land mid-window
  profile.run_time = 5 * sim::kSecond;
  profile.checkin_resend = resend_period;
  app::install_app(trial.grid->executables(), "checkin", profile,
                   &trial.stats, seed * 3 + 2);
  // No heartbeats here: during blanket loss the detector would
  // (correctly) declare everything dead; this test isolates the barrier.
  trial.inject->lossy_window(1.0, 30 * sim::kSecond, 90 * sim::kSecond);
  core::GrabAllocator grab(*trial.mech);
  std::vector<std::string> subs = {
      testbed::rsl_subjob("site1", 4, "checkin", "required"),
      testbed::rsl_subjob("site2", 4, "checkin", "required")};
  Outcome out;
  auto allocated = grab.allocate(
      testbed::rsl_multi(subs),
      {.on_subjob = nullptr,
       .on_released =
           [&](const core::RuntimeConfig&) {
             ++out.releases;
             out.released_at = trial.grid->engine().now();
           },
       .on_terminal =
           [&](const util::Status& status) {
             ++out.terminals;
             out.ok = status.is_ok();
             out.finished_at = trial.grid->engine().now();
           }});
  EXPECT_TRUE(allocated.is_ok());
  trial.grid->run_until(kHorizon);
  return out;
}

TEST(ChaosBarrier, CheckinResendSurvivesLossyWindow) {
  // Without re-send, the 8 one-shot check-ins lost in the window stall
  // the barrier until the startup deadline kills the transaction; with
  // re-send, the barrier fills as soon as the window closes.
  const Outcome oneshot = run_checkin_loss_trial(0, 5);
  EXPECT_EQ(oneshot.terminals, 1);
  EXPECT_FALSE(oneshot.ok);
  EXPECT_EQ(oneshot.releases, 0);

  const Outcome resend = run_checkin_loss_trial(2 * sim::kSecond, 5);
  EXPECT_EQ(resend.terminals, 1);
  EXPECT_TRUE(resend.ok);
  EXPECT_EQ(resend.releases, 1);
  // Released promptly once the loss window closed, well before the
  // startup deadline that doomed the one-shot run.
  EXPECT_LT(resend.released_at, oneshot.finished_at);

  // And the whole trial replays exactly.
  const Outcome again = run_checkin_loss_trial(2 * sim::kSecond, 5);
  EXPECT_EQ(resend, again);
}

}  // namespace
}  // namespace grid
