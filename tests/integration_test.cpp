// Integration tests: full-paper scenarios across all modules.
//
//  * the Figure 1 master/worker request with interactive workers;
//  * the §2 scenario: a crashed machine replaced dynamically, then a slow
//    machine dropped, with the computation proceeding at reduced fidelity;
//  * the §4.3 scale experiment: 13 machines, 1386 processes, failures
//    configured around;
//  * forecast-guided resource selection (§2.2);
//  * co-reservation across contended batch machines (§2.2 / §5);
//  * the quiescence audit: a drained grid holds no per-transaction state.
#include <gtest/gtest.h>

#include <numeric>

#include "app/failure.hpp"
#include "core/strategies.hpp"
#include "gram/client.hpp"
#include "sched/infoservice.hpp"
#include "sched/predict.hpp"
#include "test_util.hpp"

namespace grid {
namespace {

using core::RequestState;
using core::SubjobState;
using rsl::SubjobStartType;
using test::Outcome;

TEST(Integration, Figure1MasterWorker) {
  // "+(&(resourceManagerContact=RM1)(count=1)(executable=master)
  //    (subjobStartType=required))
  //   (&(resourceManagerContact=RM2)(count=4)(executable=worker)
  //    (subjobStartType=interactive)) ..."
  testbed::Grid grid(testbed::CostModel::fast());
  app::BarrierStats stats;
  for (int i = 1; i <= 5; ++i) grid.add_host("RM" + std::to_string(i), 64);
  app::install_app(grid.executables(), "master", {}, &stats);
  app::install_app(grid.executables(), "worker", {}, &stats);
  // RM4's worker pool is broken (application check fails there).
  app::install_app(grid.executables(), "broken-worker",
                   {.failure_probability = 1.0,
                    .mode_on_chance = app::FailureMode::kFailedCheck},
                   &stats);
  auto coallocator = grid.make_coallocator("agent", "/CN=mw");
  std::vector<std::string> subs = {
      testbed::rsl_subjob("RM1", 1, "master", "required"),
      testbed::rsl_subjob("RM2", 4, "worker", "interactive"),
      testbed::rsl_subjob("RM3", 4, "worker", "interactive"),
      testbed::rsl_subjob("RM4", 4, "broken-worker", "interactive"),
      testbed::rsl_subjob("RM5", 4, "worker", "interactive"),
  };
  Outcome outcome;
  // Enough workers = 8; the agent commits once it has them and drops the
  // rest (exactly the Figure 1 narrative).
  core::MinimumCountAgent agent(
      *coallocator,
      {.minimum_processes = 9, .decision_deadline = 10 * sim::kMinute},
      outcome.callbacks());
  ASSERT_TRUE(agent.request().add_rsl(testbed::rsl_multi(subs)).is_ok());
  agent.request().start();
  grid.run();
  ASSERT_TRUE(outcome.released);
  // Master plus at least two healthy worker subjobs; the broken RM4 pool
  // is not in the final configuration.
  EXPECT_GE(outcome.config.total_processes, 9);
  for (const auto& layout : outcome.config.subjobs) {
    EXPECT_NE(layout.contact, "RM4");
  }
  EXPECT_TRUE(outcome.status.is_ok());
}

TEST(Integration, Section2ScenarioReplaceThenDrop) {
  // A 400-processor simulation on five machines.  One machine is down and
  // is replaced dynamically; later another is too slow and is dropped,
  // proceeding with 4/5 of the fidelity.
  testbed::Grid grid(testbed::CostModel::fast());
  app::BarrierStats stats;
  for (int i = 1; i <= 6; ++i) grid.add_host("site" + std::to_string(i), 128);
  app::install_app(grid.executables(), "sim", {}, &stats);
  app::install_app(grid.executables(), "sim-slow",
                   {.init_delay = 30 * sim::kMinute}, &stats);
  grid.host("site3")->crash();  // down before the request arrives

  auto coallocator = grid.make_coallocator("agent", "/CN=sc2");
  core::RequestConfig config;
  config.rpc_timeout = 5 * sim::kSecond;
  config.startup_timeout = 5 * sim::kMinute;

  Outcome outcome;
  core::CoallocationRequest* req = nullptr;
  int replacements = 0;
  core::RequestCallbacks cbs = outcome.callbacks();
  cbs.on_subjob = [&](core::SubjobHandle h, SubjobState s,
                      const util::Status&) {
    if (s != SubjobState::kFailed ||
        req->state() != RequestState::kEditing) {
      return;
    }
    auto original = req->subjob_request(h);
    if (!original.is_ok()) return;
    if (original.value().resource_manager_contact == "site3" &&
        replacements == 0) {
      // Failure #1: machine down.  Replace it with the dynamically
      // located spare (site6).
      ++replacements;
      rsl::JobRequest r = original.take();
      r.resource_manager_contact = "site6";
      ASSERT_TRUE(req->substitute_subjob(h, std::move(r)).is_ok());
    }
    // Failure #2 (the slow site5, which times out): drop it and proceed
    // with four machines — handled by simply leaving it failed.
  };
  req = coallocator->create_request(cbs, config);
  req->add_subjob([&] {
    rsl::JobRequest j;
    j.resource_manager_contact = "site1";
    j.executable = "sim";
    j.count = 80;
    j.start_type = SubjobStartType::kRequired;
    return j;
  }());
  for (const auto& [site, exe] :
       std::vector<std::pair<std::string, std::string>>{
           {"site2", "sim"}, {"site3", "sim"}, {"site4", "sim"},
           {"site5", "sim-slow"}}) {
    rsl::JobRequest j;
    j.resource_manager_contact = site;
    j.executable = exe;
    j.count = 80;
    j.start_type = SubjobStartType::kInteractive;
    req->add_subjob(std::move(j));
  }
  req->start();
  grid.run_until(20 * sim::kMinute);
  ASSERT_EQ(replacements, 1);
  // After the replacement checked in and the slow site timed out, the
  // agent commits with what it has: 4 x 80 = 320 processors at reduced
  // fidelity (site5 dropped).
  ASSERT_EQ(req->state(), RequestState::kEditing);
  ASSERT_TRUE(req->commit().is_ok());
  grid.run();
  ASSERT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 320);
  bool has_site6 = false;
  for (const auto& layout : outcome.config.subjobs) {
    EXPECT_NE(layout.contact, "site3");
    EXPECT_NE(layout.contact, "site5");
    if (layout.contact == "site6") has_site6 = true;
  }
  EXPECT_TRUE(has_site6);
}

TEST(Integration, SfExpressScaleRun) {
  // §4.3: "starting a computation on 1386 processors distributed across 13
  // different parallel supercomputers ... there were difficulties starting
  // some components ... DUROC was successfully used to configure around
  // these failures."
  testbed::Grid grid(testbed::CostModel::fast());
  app::BarrierStats stats;
  std::vector<std::int32_t> sizes = {128, 128, 128, 128, 108, 108, 108,
                                     108, 108, 108, 104, 61, 61};
  ASSERT_EQ(std::accumulate(sizes.begin(), sizes.end(), 0), 1386);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    grid.add_host("super" + std::to_string(i + 1), 256);
  }
  grid.add_host("spare", 256);
  app::install_app(grid.executables(), "sf", {}, &stats);
  app::install_app(grid.executables(), "sf-broken",
                   {.failure_probability = 1.0,
                    .mode_on_chance = app::FailureMode::kCrashBeforeBarrier},
                   &stats);

  auto coallocator = grid.make_coallocator("agent", "/CN=sf");
  Outcome outcome;
  // super7 has an application failure; the replacement agent substitutes
  // the spare machine (running the healthy binary there).
  core::CoallocationRequest* req = nullptr;
  core::RequestCallbacks cbs = outcome.callbacks();
  bool repaired = false;
  cbs.on_subjob = [&](core::SubjobHandle h, SubjobState s,
                      const util::Status&) {
    if (s == SubjobState::kFailed && !repaired &&
        req->state() == RequestState::kEditing) {
      auto original = req->subjob_request(h);
      if (original.is_ok() &&
          original.value().resource_manager_contact == "super7") {
        repaired = true;
        rsl::JobRequest r = original.take();
        r.resource_manager_contact = "spare";
        r.executable = "sf";
        req->substitute_subjob(h, std::move(r));
      }
    }
  };
  core::RequestConfig config;
  config.startup_timeout = 10 * sim::kMinute;
  req = coallocator->create_request(cbs, config);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    rsl::JobRequest j;
    j.resource_manager_contact = "super" + std::to_string(i + 1);
    j.executable = (i + 1 == 7) ? "sf-broken" : "sf";
    j.count = sizes[i];
    j.start_type = SubjobStartType::kInteractive;
    req->add_subjob(std::move(j));
  }
  req->start();
  grid.run_until(10 * sim::kMinute);
  ASSERT_TRUE(repaired);
  ASSERT_TRUE(req->commit().is_ok());
  grid.run();
  ASSERT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 1386);
  EXPECT_EQ(outcome.config.subjobs.size(), 13u);
  EXPECT_EQ(stats.releases, 1386);
}

TEST(Integration, ForecastGuidedSelectionAvoidsBusyMachine) {
  // §2.2: "the co-allocator may use information published by local
  // managers to select from among alternative candidate resources".
  testbed::Grid grid(testbed::CostModel::fast());
  app::BarrierStats stats;
  grid.add_host("busy", 32, testbed::SchedulerKind::kFcfs);
  grid.add_host("idle", 32, testbed::SchedulerKind::kFcfs);
  app::install_app(grid.executables(), "app", {}, &stats);
  // Pre-load the busy machine with an hour of work.
  sched::JobDescriptor bg;
  bg.id = 0xb6;
  bg.count = 32;
  bg.runtime = sim::kHour;
  bg.estimated_runtime = sim::kHour;
  grid.host("busy")->scheduler().submit(bg, nullptr, nullptr);

  sched::LoadInformationService gis(grid.engine(), 10 * sim::kSecond);
  gis.register_resource("busy", &grid.host("busy")->scheduler());
  gis.register_resource("idle", &grid.host("idle")->scheduler());
  gis.publish_now();
  sched::AggregateWorkPredictor predictor;

  // Broker: pick the candidate with the smaller predicted wait.
  std::string best;
  sim::Time best_wait = sim::kTimeNever;
  for (const std::string& cand : {std::string("busy"), std::string("idle")}) {
    auto summary = gis.summary(gis.resolve(cand));
    ASSERT_TRUE(summary.is_ok());
    const sim::Time w = predictor.predict(summary.value(), 16);
    if (w < best_wait) {
      best_wait = w;
      best = cand;
    }
  }
  EXPECT_EQ(best, "idle");

  auto coallocator = grid.make_coallocator("agent", "/CN=fc");
  Outcome outcome;
  auto* req = coallocator->create_request(outcome.callbacks());
  req->add_rsl(testbed::rsl_multi(
      {testbed::rsl_subjob(best, 16, "app", "required")}));
  req->commit();
  grid.run_until(sim::kMinute);
  EXPECT_TRUE(outcome.released);  // would still queue behind the hour on "busy"
}

TEST(Integration, CoReservationGuaranteesSimultaneousStart) {
  // §5: co-reservation — obtain windows on two contended machines, then
  // co-allocate into them; both subjobs start exactly at the window.
  testbed::Grid grid(testbed::CostModel::fast());
  app::BarrierStats stats;
  grid.add_host("resA", 32, testbed::SchedulerKind::kReservation);
  grid.add_host("resB", 32, testbed::SchedulerKind::kReservation);
  app::install_app(grid.executables(), "app", {}, &stats);
  auto* schedA = grid.host("resA")->reservation_scheduler();
  auto* schedB = grid.host("resB")->reservation_scheduler();
  ASSERT_NE(schedA, nullptr);
  ASSERT_NE(schedB, nullptr);

  // Background load would otherwise occupy both machines.
  for (int i = 0; i < 4; ++i) {
    sched::JobDescriptor bg;
    bg.id = static_cast<sched::JobId>(0x100 + i);
    bg.count = 32;
    bg.runtime = 30 * sim::kMinute;
    bg.estimated_runtime = 30 * sim::kMinute;
    (i % 2 == 0 ? schedA : schedB)->submit(bg, nullptr, nullptr);
  }
  // Co-reservation: a window on each machine at t = 2h.
  const sim::Time start = 2 * sim::kHour;
  const sim::Time end = start + sim::kHour;
  auto ra = schedA->reserve(start, end, 16);
  auto rb = schedB->reserve(start, end, 16);
  ASSERT_TRUE(ra.is_ok());
  ASSERT_TRUE(rb.is_ok());

  // Submit the co-allocated pieces into the reserved windows.
  std::vector<sim::Time> starts;
  for (auto& [sched, res] :
       std::vector<std::pair<sched::ReservationScheduler*, sched::Reservation>>{
           {schedA, ra.value()}, {schedB, rb.value()}}) {
    sched::JobDescriptor d;
    d.id = res.id + 0x8000;
    d.count = 16;
    d.runtime = 20 * sim::kMinute;
    ASSERT_TRUE(sched
                    ->submit_reserved(d, res.id,
                                      [&](sched::JobId) {
                                        starts.push_back(grid.engine().now());
                                      },
                                      nullptr)
                    .is_ok());
  }
  grid.run();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0], start);
  EXPECT_EQ(starts[1], start);  // simultaneous, guaranteed
}

TEST(Integration, TwoConcurrentRequestsShareOneCoallocator) {
  test::SmallGrid g(4);
  Outcome a, b;
  auto* ra = g.coallocator->create_request(a.callbacks());
  auto* rb = g.coallocator->create_request(b.callbacks());
  ra->add_rsl(testbed::rsl_multi({testbed::rsl_subjob("host1", 4, "app"),
                                  testbed::rsl_subjob("host2", 4, "app")}));
  rb->add_rsl(testbed::rsl_multi({testbed::rsl_subjob("host3", 4, "app"),
                                  testbed::rsl_subjob("host4", 4, "app")}));
  ra->commit();
  rb->commit();
  g.grid->run();
  EXPECT_TRUE(a.released);
  EXPECT_TRUE(b.released);
  EXPECT_TRUE(a.status.is_ok());
  EXPECT_TRUE(b.status.is_ok());
  EXPECT_EQ(g.stats.releases, 16);
}

TEST(Integration, MessageLossDelaysButDoesNotBreakAllocation) {
  test::SmallGrid g(2);
  g.grid->network().set_drop_probability(0.0);
  core::RequestConfig config;
  config.rpc_timeout = 5 * sim::kSecond;
  config.startup_timeout = 10 * sim::kMinute;
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks(), config);
  req->add_rsl(g.rsl(4, "required"));
  // A lossy window during submission: RPCs time out; DUROC treats the
  // affected subjob as failed (required -> abort).  This documents that
  // transport loss surfaces as subjob failure, not a hang.
  app::FailureInjector chaos(g.grid->network());
  chaos.lossy_window(1.0, sim::kMillisecond, 20 * sim::kSecond);
  req->commit();
  g.grid->run();
  EXPECT_TRUE(outcome.terminal);
  EXPECT_FALSE(outcome.released);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
  EXPECT_LT(g.grid->engine().now(), sim::kHour);
}

TEST(Integration, QuiescentGridHoldsNoTransactionState) {
  // Atomic and interactive requests with application failures, and host3
  // crashing and coming back mid-run.  Once the workload drains and one
  // later request reaches every gatekeeper, nothing a transaction created
  // may remain.
  testbed::Grid grid(testbed::CostModel::fast());
  for (int i = 1; i <= 6; ++i) {
    grid.add_host("host" + std::to_string(i), 32,
                  i % 2 == 1 ? testbed::SchedulerKind::kFork
                             : testbed::SchedulerKind::kBackfill);
  }
  app::StartupProfile profile;
  profile.init_delay = 20 * sim::kSecond;
  profile.init_jitter = 10 * sim::kSecond;
  profile.failure_probability = 0.2;
  profile.mode_on_chance = app::FailureMode::kCrashBeforeBarrier;
  profile.failure_per_job = true;
  app::BarrierStats stats;
  app::install_app(grid.executables(), "app", profile, &stats, 0x9a17);
  core::RequestConfig config;
  config.rpc_timeout = 15 * sim::kSecond;
  config.startup_timeout = 2 * sim::kMinute;
  std::vector<std::unique_ptr<core::Coallocator>> agents;
  for (int a = 0; a < 2; ++a) {
    agents.push_back(grid.make_coallocator(
        "agent" + std::to_string(a),
        "/O=Grid/CN=agent" + std::to_string(a), config));
  }
  const std::size_t long_lived = grid.network().node_count();

  constexpr int kTransactions = 40;
  int terminals = 0;
  int released = 0;
  int aborted = 0;
  for (int t = 0; t < kTransactions; ++t) {
    grid.engine().schedule_at(t * 15 * sim::kSecond, [&, t] {
      core::Coallocator* agent = agents[static_cast<std::size_t>(t % 2)].get();
      auto id = std::make_shared<core::RequestId>(0);
      core::RequestCallbacks callbacks;
      callbacks.on_released = [&](const core::RuntimeConfig&) { ++released; };
      callbacks.on_terminal = [&, agent, id](const util::Status& st) {
        ++terminals;
        if (!st.is_ok()) ++aborted;
        grid.engine().schedule_after(
            0, [agent, id] { agent->destroy_request(*id); });
      };
      core::CoallocationRequest* req =
          agent->create_request(std::move(callbacks));
      *id = req->id();
      const bool atomic = t % 2 == 0;
      for (int s = 0; s < 2 + t % 2; ++s) {
        rsl::JobRequest job;
        job.resource_manager_contact = "host" + std::to_string(1 + (t + s) % 6);
        job.executable = "app";
        job.count = 4;
        job.start_type = atomic || s == 0 ? SubjobStartType::kRequired
                                          : SubjobStartType::kInteractive;
        ASSERT_TRUE(req->add_subjob(std::move(job)).is_ok());
      }
      req->start();
      ASSERT_TRUE(req->commit().is_ok());
    });
  }
  grid.engine().schedule_at(200 * sim::kSecond,
                            [&] { grid.host("host3")->crash(); });
  grid.engine().schedule_at(320 * sim::kSecond,
                            [&] { grid.host("host3")->restore(); });
  grid.run();
  ASSERT_EQ(terminals, kTransactions);
  EXPECT_GT(released, 0);
  EXPECT_GT(aborted, 0);

  // The later request: past every session's expiry, a handshake and a job
  // request with bad RSL (it creates no job) to every gatekeeper.
  net::Endpoint probe_endpoint(grid.network(), "probe");
  gram::Client probe(probe_endpoint, grid.ca(),
                     grid.make_user("/CN=probe", "probe"), grid.costs().gsi);
  int answered = 0;
  grid.engine().schedule_at(
      grid.engine().now() + sim::kHour + sim::kMinute, [&] {
        for (int i = 1; i <= 6; ++i) {
          probe.submit(grid.host("host" + std::to_string(i))->contact(),
                       "&(count=", 10 * sim::kSecond,
                       [&](util::Result<gram::JobId> r) {
                         EXPECT_EQ(r.status().code(),
                                   util::ErrorCode::kInvalidArgument);
                         ++answered;
                       });
        }
      });
  grid.run();
  ASSERT_EQ(answered, 6);

  for (int i = 1; i <= 6; ++i) {
    gram::Gatekeeper& gk = grid.host("host" + std::to_string(i))->gatekeeper();
    EXPECT_EQ(gk.job_count(), 0u) << "host" << i;  // terminal entries only
    EXPECT_EQ(gk.gsi().session_count(), 1u) << "host" << i;  // the probe's
    EXPECT_EQ(gk.gsi().pending_handshake_count(), 0u) << "host" << i;
  }
  // The crash orphaned jobs in host3's scheduler, which still runs them;
  // their managers were reaped all the same.
  EXPECT_GT(grid.host("host3")->scheduler().busy_processors(), 0);
  for (const auto& agent : agents) {
    EXPECT_EQ(agent->request_count(), 0u);
    EXPECT_EQ(agent->gram().watcher_count(), 0u);
    EXPECT_EQ(agent->gram().buffered_change_count(), 0u);
  }
  EXPECT_EQ(grid.network().node_count(), long_lived + 1);  // + the probe
  EXPECT_EQ(grid.engine().pending(), 0u);
}

}  // namespace
}  // namespace grid
