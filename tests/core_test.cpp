// Tests for the co-allocation mechanism layer: two-phase commit, barrier,
// subjob categories (required / interactive / optional), edit operations,
// GRAB atomic semantics, agent strategies, and monitoring/control.
#include <gtest/gtest.h>

#include "core/strategies.hpp"
#include "test_util.hpp"

namespace grid {
namespace {

using core::RequestState;
using core::SubjobState;
using rsl::SubjobStartType;
using test::Outcome;
using test::SmallGrid;

rsl::JobRequest make_job(const std::string& contact, std::int32_t count,
                         SubjobStartType type,
                         const std::string& exe = "app") {
  rsl::JobRequest j;
  j.resource_manager_contact = contact;
  j.executable = exe;
  j.count = count;
  j.start_type = type;
  return j;
}

// ---- basic success paths -----------------------------------------------------

TEST(Coallocation, AtomicRequestReleasesAllProcesses) {
  SmallGrid g(3);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  ASSERT_TRUE(req->add_rsl(g.rsl(8, "required")).is_ok());
  req->start();
  ASSERT_TRUE(req->commit().is_ok());
  g.grid->run();
  EXPECT_TRUE(outcome.released);
  EXPECT_TRUE(outcome.terminal);
  EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_string();
  EXPECT_EQ(outcome.config.total_processes, 24);
  EXPECT_EQ(outcome.config.subjobs.size(), 3u);
  EXPECT_EQ(g.stats.releases, 24);
  EXPECT_EQ(g.stats.completions, 24);
  EXPECT_EQ(req->state(), RequestState::kDone);
}

TEST(Coallocation, ConfigurationAssignsContiguousRanks) {
  SmallGrid g(3);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_subjob(make_job("host1", 2, SubjobStartType::kRequired));
  req->add_subjob(make_job("host2", 5, SubjobStartType::kRequired));
  req->add_subjob(make_job("host3", 3, SubjobStartType::kRequired));
  req->start();
  req->commit();
  g.grid->run();
  ASSERT_TRUE(outcome.released);
  ASSERT_EQ(outcome.config.subjobs.size(), 3u);
  EXPECT_EQ(outcome.config.subjobs[0].rank_base, 0);
  EXPECT_EQ(outcome.config.subjobs[0].size, 2);
  EXPECT_EQ(outcome.config.subjobs[1].rank_base, 2);
  EXPECT_EQ(outcome.config.subjobs[2].rank_base, 7);
  EXPECT_EQ(outcome.config.total_processes, 10);
  for (const auto& layout : outcome.config.subjobs) {
    EXPECT_NE(layout.leader, net::kInvalidNode);
  }
}

TEST(Coallocation, ReleaseOnlyAfterCommit) {
  SmallGrid g(2);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_rsl(g.rsl(4, "required"));
  req->start();
  g.grid->run();  // everything checks in, but no commit was issued
  EXPECT_FALSE(outcome.released);
  EXPECT_EQ(req->state(), RequestState::kEditing);
  ASSERT_TRUE(req->commit().is_ok());
  g.grid->run();
  EXPECT_TRUE(outcome.released);
}

TEST(Coallocation, CommitBeforeCheckinsAlsoWorks) {
  SmallGrid g(2);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_rsl(g.rsl(4, "required"));
  ASSERT_TRUE(req->commit().is_ok());  // commit() implies start()
  g.grid->run();
  EXPECT_TRUE(outcome.released);
}

TEST(Coallocation, EmptyRequestCannotCommit) {
  SmallGrid g(1);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  EXPECT_EQ(req->commit().code(), util::ErrorCode::kFailedPrecondition);
}

TEST(Coallocation, SubjobBriefsTrackTimeline) {
  SmallGrid g(1);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_rsl(g.rsl(4, "required"));
  req->commit();
  g.grid->run();
  ASSERT_EQ(req->subjob_count(), 1u);
  auto view = req->subjob_brief(1);
  ASSERT_TRUE(view.is_ok());
  const core::CoallocationRequest::SubjobBrief& v = view.value();
  EXPECT_EQ(v.state, SubjobState::kDone);
  EXPECT_EQ(v.count, 4);
  EXPECT_EQ(v.checked_in, 4);
  EXPECT_GE(v.submitted_at, 0);
  EXPECT_LE(v.submitted_at, v.accepted_at);
  EXPECT_LE(v.accepted_at, v.active_at);
  EXPECT_LE(v.active_at, v.checked_in_at);
  EXPECT_LE(v.checked_in_at, v.released_at);
}

// ---- failure semantics by category ---------------------------------------------

TEST(Coallocation, RequiredFailureAbortsEverything) {
  SmallGrid g(3);
  app::install_app(g.grid->executables(), "crasher",
                   {.failure_probability = 1.0,
                    .mode_on_chance = app::FailureMode::kFailedCheck},
                   &g.stats);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_subjob(make_job("host1", 4, SubjobStartType::kRequired));
  req->add_subjob(make_job("host2", 4, SubjobStartType::kRequired, "crasher"));
  req->add_subjob(make_job("host3", 4, SubjobStartType::kRequired));
  req->commit();
  g.grid->run();
  EXPECT_FALSE(outcome.released);
  EXPECT_TRUE(outcome.terminal);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
  EXPECT_EQ(req->state(), RequestState::kAborted);
  // No process escapes the barrier; survivors were told to abort.
  EXPECT_EQ(g.stats.releases, 0);
}

TEST(Coallocation, CrashBeforeBarrierAbortsRequired) {
  SmallGrid g(2);
  app::install_app(
      g.grid->executables(), "crasher",
      {.failure_probability = 1.0,
       .mode_on_chance = app::FailureMode::kCrashBeforeBarrier},
      &g.stats);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_subjob(make_job("host1", 4, SubjobStartType::kRequired));
  req->add_subjob(make_job("host2", 4, SubjobStartType::kRequired, "crasher"));
  req->commit();
  g.grid->run();
  EXPECT_FALSE(outcome.released);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
}

TEST(Coallocation, HangingSubjobTimesOutAndAborts) {
  SmallGrid g(2);
  app::install_app(g.grid->executables(), "hang",
                   {.failure_probability = 1.0,
                    .mode_on_chance = app::FailureMode::kHang},
                   &g.stats);
  core::RequestConfig config;
  config.startup_timeout = 30 * sim::kSecond;
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks(), config);
  req->add_subjob(make_job("host1", 4, SubjobStartType::kRequired));
  req->add_subjob(make_job("host2", 4, SubjobStartType::kRequired, "hang"));
  req->commit();
  g.grid->run();
  EXPECT_FALSE(outcome.released);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
  // Aborted promptly after the startup deadline, not hung forever.
  EXPECT_LT(g.grid->engine().now(), sim::kMinute);
}

TEST(Coallocation, OptionalFailureIsIgnored) {
  SmallGrid g(3);
  app::install_app(g.grid->executables(), "crasher",
                   {.failure_probability = 1.0,
                    .mode_on_chance = app::FailureMode::kFailedCheck},
                   &g.stats);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_subjob(make_job("host1", 4, SubjobStartType::kRequired));
  req->add_subjob(make_job("host2", 4, SubjobStartType::kOptional, "crasher"));
  req->commit();
  g.grid->run();
  EXPECT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 4);  // only the required subjob
}

TEST(Coallocation, BarrierDoesNotWaitForOptional) {
  SmallGrid g(2);
  // The optional subjob initializes for 10 minutes; release must not wait.
  app::install_app(g.grid->executables(), "slow",
                   app::StartupProfile{.init_delay = 10 * sim::kMinute},
                   &g.stats);
  core::RequestConfig config;
  config.startup_timeout = sim::kHour;
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks(), config);
  req->add_subjob(make_job("host1", 4, SubjobStartType::kRequired));
  req->add_subjob(make_job("host2", 4, SubjobStartType::kOptional, "slow"));
  req->commit();
  g.grid->run_until(2 * sim::kMinute);
  EXPECT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 4);
  // The optional subjob joins later, extending the configuration.
  g.grid->run();
  ASSERT_EQ(req->subjob_count(), 2u);
  EXPECT_EQ(req->subjob_brief(2).value().state, SubjobState::kDone);
  EXPECT_EQ(req->runtime_config().total_processes, 8);
  EXPECT_EQ(req->runtime_config().subjobs.size(), 2u);
  EXPECT_EQ(req->runtime_config().subjobs[1].rank_base, 4);
}

TEST(Coallocation, InteractiveFailurePreCommitContinues) {
  SmallGrid g(3);
  app::install_app(g.grid->executables(), "crasher",
                   {.failure_probability = 1.0,
                    .mode_on_chance = app::FailureMode::kFailedCheck},
                   &g.stats);
  Outcome outcome;
  core::SubjobHandle failed_handle = 0;
  auto cbs = outcome.callbacks();
  cbs.on_subjob = [&](core::SubjobHandle h, SubjobState s,
                      const util::Status&) {
    if (s == SubjobState::kFailed) failed_handle = h;
  };
  auto* req = g.coallocator->create_request(cbs);
  req->add_subjob(make_job("host1", 4, SubjobStartType::kRequired));
  req->add_subjob(
      make_job("host2", 4, SubjobStartType::kInteractive, "crasher"));
  req->start();
  g.grid->run();
  EXPECT_NE(failed_handle, 0u);
  EXPECT_EQ(req->state(), RequestState::kEditing);  // not aborted
  // Agent decides to go ahead with what's left.
  ASSERT_TRUE(req->commit().is_ok());
  g.grid->run();
  EXPECT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 4);
}

TEST(Coallocation, InteractiveFailureCanBeSubstituted) {
  SmallGrid g(3);
  app::install_app(g.grid->executables(), "crasher",
                   {.failure_probability = 1.0,
                    .mode_on_chance = app::FailureMode::kFailedCheck},
                   &g.stats);
  Outcome outcome;
  bool substituted = false;
  core::CoallocationRequest* req = nullptr;
  auto cbs = outcome.callbacks();
  cbs.on_subjob = [&](core::SubjobHandle h, SubjobState s,
                      const util::Status&) {
    if (s == SubjobState::kFailed && !substituted) {
      substituted = true;
      // Replace the failed interactive subjob with a healthy one on host3.
      ASSERT_TRUE(
          req->substitute_subjob(h, make_job("host3", 4,
                                             SubjobStartType::kInteractive))
              .is_ok());
    }
  };
  req = g.coallocator->create_request(cbs);
  req->add_subjob(make_job("host1", 4, SubjobStartType::kRequired));
  req->add_subjob(
      make_job("host2", 4, SubjobStartType::kInteractive, "crasher"));
  req->start();
  g.grid->run();
  ASSERT_TRUE(substituted);
  ASSERT_TRUE(req->commit().is_ok());
  g.grid->run();
  EXPECT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 8);
  EXPECT_EQ(outcome.config.subjobs[1].contact, "host3");
}

TEST(Coallocation, RequiredFailureRepairedInCallbackDoesNotAbort) {
  // A required subjob's failure aborts the request unless the agent
  // repairs the slot inside the failure callback: substituting it onto a
  // live host keeps the request editing.
  SmallGrid g(2);
  g.grid->host("host1")->crash();
  Outcome outcome;
  bool substituted = false;
  core::CoallocationRequest* req = nullptr;
  auto cbs = outcome.callbacks();
  cbs.on_subjob = [&](core::SubjobHandle h, SubjobState s,
                      const util::Status&) {
    if (s == SubjobState::kFailed && !substituted) {
      substituted = true;
      ASSERT_TRUE(
          req->substitute_subjob(h, make_job("host2", 4,
                                             SubjobStartType::kRequired))
              .is_ok());
    }
  };
  req = g.coallocator->create_request(cbs);
  req->add_subjob(make_job("host1", 4, SubjobStartType::kRequired));
  req->start();
  g.grid->run();
  ASSERT_TRUE(substituted);
  EXPECT_EQ(req->state(), RequestState::kEditing);  // not aborted
  EXPECT_FALSE(outcome.terminal);
  ASSERT_TRUE(req->commit().is_ok());
  g.grid->run();
  EXPECT_TRUE(outcome.released);
  ASSERT_EQ(outcome.config.subjobs.size(), 1u);
  EXPECT_EQ(outcome.config.subjobs[0].contact, "host2");
  EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_string();
}

TEST(Coallocation, InteractiveFailureAfterCommitAborts) {
  SmallGrid g(2);
  app::install_app(g.grid->executables(), "hang",
                   {.failure_probability = 1.0,
                    .mode_on_chance = app::FailureMode::kHang},
                   &g.stats);
  core::RequestConfig config;
  config.startup_timeout = 30 * sim::kSecond;
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks(), config);
  req->add_subjob(make_job("host1", 4, SubjobStartType::kRequired));
  req->add_subjob(make_job("host2", 4, SubjobStartType::kInteractive, "hang"));
  req->commit();  // commit before the hang is detected
  g.grid->run();
  EXPECT_FALSE(outcome.released);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
}

TEST(Coallocation, HostCrashMidAllocationIsDetected) {
  SmallGrid g(2, testbed::CostModel::fast(),
              app::StartupProfile{.init_delay = 10 * sim::kSecond});
  core::RequestConfig config;
  config.startup_timeout = 30 * sim::kSecond;
  config.rpc_timeout = 5 * sim::kSecond;
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks(), config);
  req->add_rsl(g.rsl(4, "required"));
  req->commit();
  // Crash host2 while its processes are initializing.
  g.grid->engine().schedule_at(2 * sim::kSecond,
                               [&] { g.grid->host("host2")->crash(); });
  g.grid->run();
  EXPECT_FALSE(outcome.released);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
  EXPECT_LT(g.grid->engine().now(), 2 * sim::kMinute);
}

// ---- editing --------------------------------------------------------------------

TEST(Coallocation, EditsRejectedAfterCommit) {
  SmallGrid g(2);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_rsl(g.rsl(2, "required"));
  req->commit();
  EXPECT_EQ(req->add_subjob(make_job("host1", 1, SubjobStartType::kOptional))
                .status()
                .code(),
            util::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(req->remove_subjob(1).code(),
            util::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(req->substitute_subjob(1,
                                   make_job("host2", 1,
                                            SubjobStartType::kRequired))
                .code(),
            util::ErrorCode::kFailedPrecondition);
  g.grid->run();
  EXPECT_TRUE(outcome.released);
}

TEST(Coallocation, RemoveSubjobCancelsItsJob) {
  SmallGrid g(2, testbed::CostModel::fast(),
              app::StartupProfile{.init_delay = 20 * sim::kSecond});
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_subjob(make_job("host1", 4, SubjobStartType::kRequired));
  const auto removable =
      req->add_subjob(make_job("host2", 4, SubjobStartType::kInteractive));
  ASSERT_TRUE(removable.is_ok());
  req->start();
  g.grid->run_until(5 * sim::kSecond);  // both accepted, still initializing
  ASSERT_TRUE(req->remove_subjob(removable.value()).is_ok());
  req->commit();
  g.grid->run();
  EXPECT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 4);
  auto view = req->subjob_brief(removable.value());
  ASSERT_TRUE(view.is_ok());
  EXPECT_EQ(view.value().state, SubjobState::kDeleted);
}

TEST(Coallocation, AddSubjobWhilePipelineRuns) {
  SmallGrid g(3);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_subjob(make_job("host1", 2, SubjobStartType::kRequired));
  req->start();
  g.grid->engine().schedule_at(sim::kSecond, [&] {
    req->add_subjob(make_job("host2", 2, SubjobStartType::kRequired));
    req->add_subjob(make_job("host3", 2, SubjobStartType::kRequired));
    req->commit();
  });
  g.grid->run();
  EXPECT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 6);
}

TEST(Coallocation, UnknownContactFailsSubjob) {
  SmallGrid g(1);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_subjob(make_job("nowhere", 2, SubjobStartType::kRequired));
  req->commit();
  g.grid->run();
  EXPECT_FALSE(outcome.released);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
}

// ---- control / monitoring --------------------------------------------------------

TEST(Coallocation, KillTerminatesReleasedComputation) {
  SmallGrid g(2, testbed::CostModel::fast(),
              app::StartupProfile{.run_time = sim::kHour});
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_rsl(g.rsl(4, "required"));
  req->commit();
  g.grid->run_until(sim::kMinute);
  ASSERT_TRUE(outcome.released);
  req->kill();
  g.grid->run();
  EXPECT_EQ(req->state(), RequestState::kAborted);
  EXPECT_LT(sim::to_seconds(g.grid->engine().now()), 3600.0);
  EXPECT_EQ(g.stats.completions, 0);
}

TEST(Coallocation, PostReleaseFailureIsMonitoringEventByDefault) {
  SmallGrid g(2);
  // host2's processes run for an hour but host2 crashes mid-run.
  app::StartupProfile longrun{.run_time = sim::kHour};
  app::install_app(g.grid->executables(), "longapp", longrun, &g.stats);
  Outcome outcome;
  std::vector<std::pair<core::SubjobHandle, SubjobState>> events;
  auto cbs = outcome.callbacks();
  cbs.on_subjob = [&](core::SubjobHandle h, SubjobState s,
                      const util::Status&) { events.emplace_back(h, s); };
  auto* req = g.coallocator->create_request(cbs);
  req->add_subjob(make_job("host1", 2, SubjobStartType::kRequired, "longapp"));
  req->add_subjob(make_job("host2", 2, SubjobStartType::kRequired, "longapp"));
  req->commit();
  g.grid->run_until(sim::kMinute);
  ASSERT_TRUE(outcome.released);
  // Cancel host2's GRAM job out from under the computation.
  auto view = req->subjob_brief(2);
  ASSERT_TRUE(view.is_ok());
  g.grid->host("host2")->gatekeeper();
  // Kill via scheduler-level wall clock: simulate by cancelling through
  // the gatekeeper's job manager.
  g.grid->engine().schedule_after(sim::kSecond, [&] {
    auto* host = g.grid->host("host2");
    // Cancel all host2 jobs (there is exactly one).
    host->scheduler().cancel(view.value().gram_job);
  });
  g.grid->run();
  // The request is NOT aborted; the failure shows up as a subjob event.
  bool saw_post_release_failure = false;
  for (const auto& [h, s] : events) {
    if (h == 2 && s == SubjobState::kFailed) {
      saw_post_release_failure = true;
    }
  }
  EXPECT_TRUE(saw_post_release_failure);
}

// ---- GRAB (atomic transactions) -----------------------------------------------------

TEST(Grab, AllocatesAtomically) {
  SmallGrid g(3);
  core::GrabAllocator grab(*g.coallocator);
  bool started = false;
  util::Status done(util::ErrorCode::kInternal, "unset");
  auto id = grab.allocate(g.rsl(8, "required"),
                          {.on_subjob = nullptr,
                           .on_released = [&](const core::RuntimeConfig& c) {
                             started = true;
                             EXPECT_EQ(c.total_processes, 24);
                           },
                           .on_terminal =
                               [&](const util::Status& s) { done = s; }});
  ASSERT_TRUE(id.is_ok()) << id.status().to_string();
  g.grid->run();
  EXPECT_TRUE(started);
  EXPECT_TRUE(done.is_ok());
}

TEST(Grab, IgnoresStartTypesEverythingRequired) {
  SmallGrid g(2);
  app::install_app(g.grid->executables(), "crasher",
                   {.failure_probability = 1.0,
                    .mode_on_chance = app::FailureMode::kFailedCheck},
                   &g.stats);
  core::GrabAllocator grab(*g.coallocator);
  bool started = false;
  util::Status done;
  // The crasher subjob is marked optional, but GRAB's atomic semantics
  // treat everything as required: the whole allocation must fail.
  const std::string rsl = testbed::rsl_multi({
      testbed::rsl_subjob("host1", 4, "app", "required"),
      testbed::rsl_subjob("host2", 4, "crasher", "optional"),
  });
  auto id = grab.allocate(
      rsl, {.on_subjob = nullptr,
            .on_released = [&](const core::RuntimeConfig&) { started = true; },
            .on_terminal = [&](const util::Status& s) { done = s; }});
  ASSERT_TRUE(id.is_ok());
  g.grid->run();
  EXPECT_FALSE(started);
  EXPECT_EQ(done.code(), util::ErrorCode::kAborted);
}

TEST(Grab, RejectsEmptyAndBadRequests) {
  SmallGrid g(1);
  core::GrabAllocator grab(*g.coallocator);
  EXPECT_FALSE(grab.allocate("", {}).is_ok());
  EXPECT_FALSE(grab.allocate("&(a=1)", {}).is_ok());
  EXPECT_FALSE(grab.allocate("+(&(count=2))", {}).is_ok());  // no exe/contact
}

TEST(Grab, KillRollsBack) {
  SmallGrid g(2, testbed::CostModel::fast(),
              app::StartupProfile{.run_time = sim::kHour});
  core::GrabAllocator grab(*g.coallocator);
  util::Status done;
  auto id = grab.allocate(
      g.rsl(4, "required"),
      {.on_subjob = nullptr,
       .on_released = [](const core::RuntimeConfig&) {},
       .on_terminal = [&](const util::Status& s) { done = s; }});
  ASSERT_TRUE(id.is_ok());
  g.grid->run_until(sim::kMinute);
  core::CoallocationRequest* request = g.coallocator->find_request(id.value());
  ASSERT_NE(request, nullptr);
  request->kill();
  g.grid->run();
  EXPECT_EQ(done.code(), util::ErrorCode::kAborted);
}

TEST(Grab, SynchronousFailureIsReportedOnce) {
  // The first subjob names a contact no resolver knows, so it fails inside
  // allocate().  The caller hears that once, through on_terminal, and
  // still gets the id of the request that failed.
  SmallGrid g(1);
  core::GrabAllocator grab(*g.coallocator);
  int terminals = 0;
  util::Status done;
  const std::string rsl = testbed::rsl_multi({
      testbed::rsl_subjob("nowhere", 2, "app", "required"),
      testbed::rsl_subjob("host1", 2, "app", "required"),
  });
  auto id = grab.allocate(rsl, {.on_subjob = nullptr,
                                .on_released = nullptr,
                                .on_terminal = [&](const util::Status& s) {
                                  ++terminals;
                                  done = s;
                                }});
  ASSERT_TRUE(id.is_ok()) << id.status().to_string();
  EXPECT_EQ(terminals, 1);
  EXPECT_EQ(done.code(), util::ErrorCode::kAborted);
  g.grid->run();
  EXPECT_EQ(terminals, 1);
  EXPECT_EQ(g.coallocator->find_request(id.value()), nullptr);
  EXPECT_EQ(g.coallocator->request_count(), 0u);
}

TEST(Grab, FreesEveryRequestAfterItsTerminal) {
  SmallGrid g(3);
  core::GrabAllocator grab(*g.coallocator);
  int ok = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(grab.allocate(g.rsl(4, "required"),
                              {.on_subjob = nullptr,
                               .on_released = nullptr,
                               .on_terminal =
                                   [&](const util::Status& s) {
                                     if (s.is_ok()) ++ok;
                                   }})
                    .is_ok());
  }
  EXPECT_EQ(g.coallocator->request_count(), 3u);
  g.grid->run();
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(g.coallocator->request_count(), 0u);
}

// ---- agent strategies ------------------------------------------------------------------

TEST(Strategies, ReplacementAgentSubstitutesFromPool) {
  SmallGrid g(4);
  app::install_app(g.grid->executables(), "crasher",
                   {.failure_probability = 1.0,
                    .mode_on_chance = app::FailureMode::kFailedCheck},
                   &g.stats);
  Outcome outcome;
  core::ReplacementAgent agent(
      *g.coallocator,
      {.spare_contacts = {"host3", "host4"}},
      outcome.callbacks());
  agent.request().add_subjob(make_job("host1", 4, SubjobStartType::kRequired));
  agent.request().add_subjob(
      make_job("host2", 4, SubjobStartType::kInteractive, "crasher"));
  agent.request().start();
  g.grid->run();
  // The substitute keeps the failed subjob's shape, including its
  // executable, so the "crasher" fails on host3 and host4 too; once the
  // pool is exhausted the agent commits to what it holds (host1).
  EXPECT_EQ(agent.substitutions_made(), 2u);
  EXPECT_TRUE(agent.spares_left().empty());
  EXPECT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 4);
  EXPECT_EQ(outcome.config.subjobs[0].contact, "host1");
}

TEST(Strategies, ReplacementAgentRecoversWithHealthySpare) {
  // A host whose *resource* is down (crashed gatekeeper) rather than whose
  // application is broken: the substitute runs the same executable on a
  // healthy machine and succeeds — the §3.2 replacement scenario.
  SmallGrid g(3);
  core::RequestConfig config;
  config.rpc_timeout = 5 * sim::kSecond;
  g.grid->host("host2")->crash();
  Outcome outcome;
  core::ReplacementAgent agent(*g.coallocator,
                               {.spare_contacts = {"host3"}},
                               outcome.callbacks());
  agent.request().add_subjob(make_job("host1", 4, SubjobStartType::kRequired));
  agent.request().add_subjob(
      make_job("host2", 4, SubjobStartType::kInteractive));
  agent.request().start();
  g.grid->run();
  EXPECT_EQ(agent.substitutions_made(), 1u);
  EXPECT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 8);
  EXPECT_EQ(outcome.config.subjobs[1].contact, "host3");
}

TEST(Strategies, MinimumCountAgentDropsLaggards) {
  SmallGrid g(4);
  app::install_app(g.grid->executables(), "slow",
                   app::StartupProfile{.init_delay = 20 * sim::kMinute},
                   &g.stats);
  Outcome outcome;
  core::MinimumCountAgent agent(
      *g.coallocator,
      {.minimum_processes = 8, .decision_deadline = sim::kHour},
      outcome.callbacks());
  agent.request().add_subjob(
      make_job("host1", 4, SubjobStartType::kInteractive));
  agent.request().add_subjob(
      make_job("host2", 4, SubjobStartType::kInteractive));
  agent.request().add_subjob(
      make_job("host3", 4, SubjobStartType::kInteractive, "slow"));
  agent.request().start();
  g.grid->run_until(5 * sim::kMinute);
  // 8 fast processes checked in; the slow subjob was dropped and the
  // request committed without it (the §2 scenario resolution).
  EXPECT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 8);
  g.grid->run();
  EXPECT_TRUE(outcome.terminal);
}

TEST(Strategies, MinimumCountAgentAbortsAtDeadline) {
  SmallGrid g(2);
  app::install_app(g.grid->executables(), "slow",
                   app::StartupProfile{.init_delay = 20 * sim::kMinute},
                   &g.stats);
  Outcome outcome;
  core::MinimumCountAgent agent(
      *g.coallocator,
      {.minimum_processes = 8, .decision_deadline = 2 * sim::kMinute},
      outcome.callbacks());
  agent.request().add_subjob(
      make_job("host1", 4, SubjobStartType::kInteractive, "slow"));
  agent.request().add_subjob(
      make_job("host2", 4, SubjobStartType::kInteractive, "slow"));
  agent.request().start();
  g.grid->run();
  EXPECT_FALSE(outcome.released);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
}

}  // namespace
}  // namespace grid
