// Edge-case tests for the co-allocation mechanism layer: races between
// edits and in-flight protocol activity, stale incarnations, duplicate
// and malformed barrier traffic, serialization mode, and request teardown.
#include <gtest/gtest.h>

#include "app/failure.hpp"
#include "core/barrier_protocol.hpp"
#include "core/monitor.hpp"
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

TEST(CoallocationEdge, SubstituteWhileSubmissionInFlightReapsOrphan) {
  // The GRAM request for host1 is accepted *after* the agent substitutes
  // the slot; the orphan job must be cancelled, not leaked.
  SmallGrid g(2, testbed::CostModel::paper());
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  auto handle =
      req->add_subjob(make_job("host1", 4, SubjobStartType::kInteractive));
  ASSERT_TRUE(handle.is_ok());
  req->start();
  // The paper cost model takes ~1.2 s to accept; edit at 0.5 s.
  g.grid->engine().schedule_at(500 * sim::kMillisecond, [&] {
    ASSERT_TRUE(req->substitute_subjob(
                       handle.value(),
                       make_job("host2", 4, SubjobStartType::kInteractive))
                    .is_ok());
    req->commit();
  });
  g.grid->run();
  ASSERT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.subjobs[0].contact, "host2");
  // The orphan, host1's only job, was cancelled.
  auto& gk = g.grid->host("host1")->gatekeeper();
  EXPECT_EQ(gk.job_state(gram::make_job_id(gk.contact(), 1)).value(),
            gram::JobState::kFailed);
  EXPECT_EQ(g.stats.releases, 4);
}

TEST(CoallocationEdge, OrphanOfSubstitutedSlotIsCancelled) {
  // The slot is substituted right after start(), so the job its first
  // submission creates is an orphan, accepted once the slot no longer
  // names a job.  It must be cancelled at the gatekeeper its id names, not
  // hold the host's 4 processors until its processes check in 10 minutes
  // later with the substitute's job queued behind it.
  testbed::Grid grid(testbed::CostModel::paper());
  grid.add_host("host1", 4, testbed::SchedulerKind::kFcfs);
  app::BarrierStats stats;
  app::install_app(grid.executables(), "app",
                   app::StartupProfile{.init_delay = 10 * sim::kMinute},
                   &stats);
  auto coallocator = grid.make_coallocator("agent", "/O=Grid/CN=tester");
  Outcome outcome;
  auto* req = coallocator->create_request(outcome.callbacks());
  auto handle =
      req->add_subjob(make_job("host1", 4, SubjobStartType::kInteractive));
  ASSERT_TRUE(handle.is_ok());
  req->start();
  ASSERT_TRUE(req->substitute_subjob(
                     handle.value(),
                     make_job("host1", 4, SubjobStartType::kInteractive))
                  .is_ok());
  grid.run_until(sim::kMinute);
  const gram::JobId substitute =
      req->subjob_brief(handle.value()).value().gram_job;
  ASSERT_NE(substitute, 0u);
  EXPECT_EQ(grid.host("host1")->gatekeeper().job_state(substitute).value(),
            gram::JobState::kActive);
  EXPECT_EQ(grid.host("host1")->scheduler().queue_length(), 0u);
}

TEST(CoallocationEdge, AbortedRequestLeavesNoGramClientState) {
  // host2's executable is missing, so the request aborts and cancels the
  // host1 job.  That job's FAILED change reaches the client after the
  // request forgot it; nothing may stay buffered for it.
  SmallGrid g(2);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  ASSERT_TRUE(
      req->add_subjob(make_job("host1", 4, SubjobStartType::kRequired))
          .is_ok());
  ASSERT_TRUE(req->add_subjob(make_job("host2", 4, SubjobStartType::kRequired,
                                       "no-such-binary"))
                  .is_ok());
  req->start();
  req->commit();
  g.grid->run();
  ASSERT_TRUE(outcome.terminal);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
  g.coallocator->destroy_request(req->id());
  EXPECT_EQ(g.coallocator->gram().watcher_count(), 0u);
  EXPECT_EQ(g.coallocator->gram().buffered_change_count(), 0u);
}

TEST(CoallocationEdge, StaleIncarnationCheckinIsRejected) {
  // A process from a substituted-away incarnation checks in; the request
  // must ignore it (and tell it to abort), not double-count.
  SmallGrid g(2, testbed::CostModel::fast(),
              app::StartupProfile{.init_delay = 5 * sim::kSecond});
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  auto handle =
      req->add_subjob(make_job("host1", 4, SubjobStartType::kInteractive));
  ASSERT_TRUE(handle.is_ok());
  req->start();
  // Substitute at 1 s: host1's processes (init 5 s) have not checked in
  // yet, but their job is ACTIVE and they *will* check in as a stale
  // incarnation... (their job gets cancelled; any in-flight check-in from
  // it must be ignored).
  g.grid->engine().schedule_at(sim::kSecond, [&] {
    req->substitute_subjob(handle.value(),
                           make_job("host2", 4, SubjobStartType::kRequired));
    req->commit();
  });
  g.grid->run();
  ASSERT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 4);
  EXPECT_EQ(outcome.config.subjobs[0].contact, "host2");
  auto view = req->subjob_brief(handle.value());
  ASSERT_TRUE(view.is_ok());
  EXPECT_EQ(view.value().checked_in, 4);
}

TEST(CoallocationEdge, ForgedCheckinForUnknownSubjobIsIgnored) {
  SmallGrid g(1);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_rsl(g.rsl(2, "required"));
  req->commit();
  // Inject a forged check-in for a nonexistent subjob.
  net::Endpoint forger(g.grid->network(), "forger");
  core::CheckinMessage msg;
  msg.request = req->id();
  msg.subjob = 424242;
  msg.gram_job = 7;
  msg.rank = 0;
  msg.ok = true;
  util::Writer w;
  msg.encode(w);
  forger.notify(g.coallocator->endpoint().id(), core::kNotifyCheckin,
                w.take());
  g.grid->run();
  EXPECT_TRUE(outcome.released);  // unaffected
  EXPECT_EQ(outcome.config.total_processes, 2);
}

TEST(CoallocationEdge, CheckinForDeadRequestGetsAbortReply) {
  SmallGrid g(1);
  // A process checks in against a request id that does not exist; the
  // co-allocator should answer with an abort so the orphan exits.
  struct Listener : net::Node {
    void handle_message(const net::Message& msg) override {
      if (msg.kind == net::kFrameNotify) {
        util::Reader r(msg.payload);
        kind = r.u32();
      }
    }
    std::uint32_t kind = 0;
  } listener;
  const net::NodeId addr = g.grid->network().attach(&listener);
  core::CheckinMessage msg;
  msg.request = 999;
  msg.subjob = 1;
  msg.rank = 0;
  msg.ok = true;
  util::Writer w;
  msg.encode(w);
  // Send from the raw node (bypasses Endpoint framing).
  util::Writer frame;
  frame.u32(core::kNotifyCheckin);
  frame.blob(w.bytes());
  g.grid->network().send(addr, g.coallocator->endpoint().id(),
                         net::kFrameNotify, frame.take());
  g.grid->run();
  EXPECT_EQ(listener.kind, core::kNotifyAbort);
}

TEST(CoallocationEdge, AbortDuringEditingCancelsEverything) {
  SmallGrid g(3, testbed::CostModel::fast(),
              app::StartupProfile{.init_delay = 10 * sim::kSecond});
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_rsl(g.rsl(4, "interactive"));
  req->start();
  g.grid->engine().schedule_at(2 * sim::kSecond,
                               [&] { req->abort("operator abort"); });
  g.grid->run();
  EXPECT_FALSE(outcome.released);
  EXPECT_TRUE(outcome.terminal);
  EXPECT_EQ(req->state(), RequestState::kAborted);
  EXPECT_EQ(g.stats.releases, 0);
  // The simulation quiesces quickly: no runaway retries.
  EXPECT_LT(g.grid->engine().now(), sim::kMinute);
}

TEST(CoallocationEdge, DoubleCommitRejected) {
  SmallGrid g(1);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_rsl(g.rsl(2, "required"));
  ASSERT_TRUE(req->commit().is_ok());
  EXPECT_EQ(req->commit().code(), util::ErrorCode::kFailedPrecondition);
  g.grid->run();
  EXPECT_TRUE(outcome.released);
}

TEST(CoallocationEdge, AbortAfterTerminalIsIdempotent) {
  SmallGrid g(1);
  Outcome outcome;
  int terminal_count = 0;
  auto cbs = outcome.callbacks();
  auto chained = cbs.on_terminal;
  cbs.on_terminal = [&, chained](const util::Status& s) {
    ++terminal_count;
    chained(s);
  };
  auto* req = g.coallocator->create_request(cbs);
  req->add_rsl(g.rsl(2, "required"));
  req->commit();
  g.grid->run();
  EXPECT_TRUE(outcome.status.is_ok());
  req->abort("too late");
  req->kill();
  g.grid->run();
  EXPECT_EQ(terminal_count, 1);
  EXPECT_EQ(req->state(), RequestState::kDone);
}

TEST(CoallocationEdge, SerializeUntilCheckinOrdersSubjobsStrictly) {
  SmallGrid g(3, testbed::CostModel::fast(),
              app::StartupProfile{.init_delay = sim::kSecond});
  core::RequestConfig config;
  config.serialize_until_checkin = true;
  std::vector<std::pair<core::SubjobHandle, core::SubjobState>> events;
  Outcome outcome;
  auto cbs = outcome.callbacks();
  cbs.on_subjob = [&](core::SubjobHandle h, SubjobState s,
                      const util::Status&) { events.emplace_back(h, s); };
  auto* req = g.coallocator->create_request(cbs, config);
  req->add_rsl(g.rsl(2, "required"));
  req->commit();
  g.grid->run();
  ASSERT_TRUE(outcome.released);
  // Subjob i+1 must not start submitting before subjob i checked in.
  std::vector<core::SubjobHandle> submit_order, checkin_order;
  for (const auto& [h, s] : events) {
    if (s == SubjobState::kSubmitting) submit_order.push_back(h);
    if (s == SubjobState::kCheckedIn) checkin_order.push_back(h);
  }
  ASSERT_EQ(submit_order.size(), 3u);
  ASSERT_EQ(checkin_order.size(), 3u);
  for (std::size_t i = 0; i + 1 < submit_order.size(); ++i) {
    // find positions in the flat event list
    auto pos = [&](core::SubjobHandle h, SubjobState s) {
      for (std::size_t k = 0; k < events.size(); ++k) {
        if (events[k].first == h && events[k].second == s) return k;
      }
      return events.size();
    };
    EXPECT_LT(pos(submit_order[i], SubjobState::kCheckedIn),
              pos(submit_order[i + 1], SubjobState::kSubmitting));
  }
}

// The serialize_until_checkin pipeline holds the next submission until the
// subjob it last accepted checks in.  Editing that subjob out of the
// request first must let the next one go: otherwise nothing is ever
// submitted again and no startup timer is armed to end the request.
void edit_held_subjob(bool substitute) {
  SmallGrid g(2, testbed::CostModel::fast(),
              app::StartupProfile{.init_delay = sim::kSecond});
  core::RequestConfig config;
  config.serialize_until_checkin = true;
  Outcome outcome;
  auto cbs = outcome.callbacks();
  core::CoallocationRequest* req = nullptr;
  bool edited = false;
  cbs.on_subjob = [&](core::SubjobHandle h, SubjobState s,
                      const util::Status&) {
    if (h != 1 || s != SubjobState::kPending || edited) return;
    edited = true;
    const util::Status edit =
        substitute ? req->substitute_subjob(
                         1, make_job("host1", 2, SubjobStartType::kInteractive))
                   : req->remove_subjob(1);
    ASSERT_TRUE(edit.is_ok()) << edit.to_string();
    ASSERT_TRUE(req->commit().is_ok());
  };
  req = g.coallocator->create_request(cbs, config);
  ASSERT_TRUE(
      req->add_subjob(make_job("host1", 2, SubjobStartType::kInteractive))
          .is_ok());
  ASSERT_TRUE(
      req->add_subjob(make_job("host2", 2, SubjobStartType::kInteractive))
          .is_ok());
  req->start();
  g.grid->run();
  ASSERT_TRUE(edited);
  EXPECT_TRUE(outcome.released);
  EXPECT_TRUE(outcome.terminal);
  EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_string();
  EXPECT_EQ(outcome.config.subjobs.size(), substitute ? 2u : 1u);
  EXPECT_EQ(req->subjob_brief(2).value().state, SubjobState::kDone);
}

TEST(CoallocationEdge, RemovingTheHeldSubjobReleasesThePipeline) {
  edit_held_subjob(/*substitute=*/false);
}

TEST(CoallocationEdge, SubstitutingTheHeldSubjobReleasesThePipeline) {
  edit_held_subjob(/*substitute=*/true);
}

// A required subjob whose process crashes fails with that crash as its
// cause, and the abort names it.
TEST(CoallocationEdge, CrashedProcessIsTheSubjobFailureCause) {
  SmallGrid g(1, testbed::CostModel::fast(),
              app::StartupProfile{
                  .failure_probability = 1.0,
                  .mode_on_chance = app::FailureMode::kCrashBeforeBarrier});
  Outcome outcome;
  auto cbs = outcome.callbacks();
  util::Status failure;
  cbs.on_subjob = [&](core::SubjobHandle, SubjobState s,
                      const util::Status& why) {
    if (s == SubjobState::kFailed && failure.is_ok()) failure = why;
  };
  auto* req = g.coallocator->create_request(cbs);
  ASSERT_TRUE(
      req->add_subjob(make_job("host1", 2, SubjobStartType::kRequired))
          .is_ok());
  ASSERT_TRUE(req->commit().is_ok());
  g.grid->run();
  const std::string cause =
      "GRAM: process 0 failed: process crashed during initialization";
  EXPECT_EQ(failure.code(), util::ErrorCode::kInternal);
  EXPECT_EQ(failure.message(), cause);
  ASSERT_TRUE(outcome.terminal);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
  EXPECT_NE(outcome.status.message().find(cause), std::string::npos)
      << outcome.status.message();
}

TEST(CoallocationEdge, HeartbeatDetectsDeadHostEarly) {
  // Without a detector, a host that dies after accepting the job is only
  // detected at the startup deadline (30 min here).  With a heartbeat
  // every 10 s, the failure surfaces within ~half a minute.
  SmallGrid g(2, testbed::CostModel::fast(),
              app::StartupProfile{.init_delay = 10 * sim::kMinute});
  core::RequestConfig config;
  config.startup_timeout = 30 * sim::kMinute;
  config.rpc_timeout = 5 * sim::kSecond;
  Outcome outcome;
  util::Status failure;
  auto cbs = outcome.callbacks();
  cbs.on_subjob = [&](core::SubjobHandle, SubjobState s,
                      const util::Status& why) {
    // Record only the root-cause failure; the abort marks the rest.
    if (s == SubjobState::kFailed && failure.is_ok()) failure = why;
  };
  auto* req = g.coallocator->create_request(cbs, config);
  req->add_rsl(g.rsl(4, "required"));
  req->commit();
  core::HeartbeatDetector detector(*g.coallocator, req->id(),
                                   {.interval = 10 * sim::kSecond,
                                    .beat_timeout = 5 * sim::kSecond,
                                    .misses_to_dead = 2});
  detector.start();
  // host2 dies while its application initializes.
  g.grid->engine().schedule_at(5 * sim::kSecond,
                               [&] { g.grid->host("host2")->crash(); });
  g.grid->run();
  EXPECT_FALSE(outcome.released);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
  EXPECT_EQ(failure.code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(detector.verdicts(), 1u);
  // Detected by heartbeats in well under a minute, not at the 30 min
  // deadline.
  EXPECT_LT(g.grid->engine().now(), sim::kMinute);
}

TEST(CoallocationEdge, HeartbeatToleratesTransientLoss) {
  // A short network outage must not kill the subjob if beats recover
  // within the allowed miss budget.
  SmallGrid g(1, testbed::CostModel::fast(),
              app::StartupProfile{.init_delay = 2 * sim::kMinute});
  core::RequestConfig config;
  config.startup_timeout = 30 * sim::kMinute;
  config.rpc_timeout = 2 * sim::kSecond;
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks(), config);
  req->add_rsl(g.rsl(4, "required"));
  req->commit();
  core::HeartbeatDetector detector(*g.coallocator, req->id(),
                                   {.interval = 10 * sim::kSecond,
                                    .beat_timeout = 2 * sim::kSecond,
                                    .misses_to_dead = 3});
  detector.start();
  // One beat window of total loss (~12 s): at most 1-2 misses, then
  // recovery.
  app::FailureInjector chaos(g.grid->network());
  chaos.lossy_window(1.0, 20 * sim::kSecond, 32 * sim::kSecond);
  g.grid->run();
  EXPECT_TRUE(outcome.released);
  EXPECT_TRUE(outcome.status.is_ok());
  EXPECT_GT(detector.beats_missed(), 0u);
  EXPECT_EQ(detector.verdicts(), 0u);
}

TEST(CoallocationEdge, DestroyRequestMidFlightIsSafe) {
  SmallGrid g(2, testbed::CostModel::fast(),
              app::StartupProfile{.init_delay = 10 * sim::kSecond});
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_rsl(g.rsl(4, "required"));
  req->commit();
  const core::RequestId id = req->id();
  g.grid->engine().schedule_at(2 * sim::kSecond, [&, id] {
    g.coallocator->destroy_request(id);
  });
  g.grid->run();  // must not crash; late messages are dropped/aborted
  EXPECT_EQ(g.coallocator->request_count(), 0u);
  EXPECT_FALSE(outcome.released);
}

TEST(CoallocationEdge, RemovingLastLiveSubjobThenCommitAborts) {
  SmallGrid g(1);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  auto handle =
      req->add_subjob(make_job("host1", 2, SubjobStartType::kInteractive));
  ASSERT_TRUE(handle.is_ok());
  ASSERT_TRUE(req->remove_subjob(handle.value()).is_ok());
  ASSERT_TRUE(req->commit().is_ok());  // request non-empty but nothing live
  g.grid->run();
  EXPECT_FALSE(outcome.released);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
}

TEST(CoallocationEdge, HandlesAreDenseAcrossEdits) {
  // Handles run 1..subjob_count() in insertion order: a removed slot stays
  // (kDeleted), a substituted one keeps its handle, and adds append.
  SmallGrid g(3);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  EXPECT_EQ(req->subjob_count(), 0u);
  EXPECT_FALSE(req->subjob_brief(0).is_ok());
  EXPECT_FALSE(req->subjob_brief(1).is_ok());
  auto a = req->add_subjob(make_job("host1", 4, SubjobStartType::kRequired));
  auto b =
      req->add_subjob(make_job("host2", 8, SubjobStartType::kInteractive));
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_EQ(a.value(), 1u);
  EXPECT_EQ(b.value(), 2u);
  ASSERT_TRUE(req->remove_subjob(b.value()).is_ok());
  EXPECT_EQ(req->remove_subjob(b.value()).code(), util::ErrorCode::kNotFound);
  ASSERT_TRUE(req->substitute_subjob(
                     a.value(), make_job("host3", 6, SubjobStartType::kRequired))
                  .is_ok());
  auto c = req->add_subjob(make_job("host2", 2, SubjobStartType::kRequired));
  ASSERT_TRUE(c.is_ok());
  EXPECT_EQ(c.value(), 3u);
  ASSERT_EQ(req->subjob_count(), 3u);
  EXPECT_FALSE(req->subjob_brief(4).is_ok());
  const char* contacts[] = {"host3", "host2", "host2"};
  const std::int32_t counts[] = {6, 8, 2};
  const SubjobState states[] = {SubjobState::kUnsubmitted,
                                SubjobState::kDeleted,
                                SubjobState::kUnsubmitted};
  for (core::SubjobHandle h = 1; h <= req->subjob_count(); ++h) {
    SCOPED_TRACE("handle " + std::to_string(h));
    EXPECT_EQ(req->subjob_request(h).value().resource_manager_contact,
              contacts[h - 1]);
    EXPECT_EQ(req->subjob_brief(h).value().count, counts[h - 1]);
    EXPECT_EQ(req->subjob_brief(h).value().state, states[h - 1]);
  }
  req->commit();
  g.grid->run();
  ASSERT_TRUE(outcome.released);
  ASSERT_EQ(outcome.config.subjobs.size(), 2u);
  EXPECT_EQ(outcome.config.subjobs[0].subjob, 1u);
  EXPECT_EQ(outcome.config.subjobs[1].subjob, 3u);
  EXPECT_EQ(outcome.config.total_processes, 8);
}

TEST(CoallocationEdge, RepairAddedWhileStartFailsASubjobIsSafe) {
  // The first subjob names a contact no resolver knows, so start() fails
  // it synchronously.  The agent repairs the request from the failure
  // callback by adding subjobs, enough to move every slot; start() must
  // go on without touching the moved slots, and the pipeline must still
  // submit one subjob at a time (§4.2).
  SmallGrid g(2);
  Outcome outcome;
  core::CoallocationRequest* req = nullptr;
  auto cbs = outcome.callbacks();
  int repairs = 0;
  cbs.on_subjob = [&](core::SubjobHandle, SubjobState s,
                      const util::Status& why) {
    if (s != SubjobState::kFailed || repairs > 0) return;
    ++repairs;
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(
          req->add_subjob(make_job("host2", 1, SubjobStartType::kInteractive))
              .is_ok());
    }
    // The status handed to the callback is still readable after the adds.
    EXPECT_EQ(why.code(), util::ErrorCode::kNotFound);
  };
  req = g.coallocator->create_request(cbs);
  ASSERT_TRUE(
      req->add_subjob(make_job("nowhere", 2, SubjobStartType::kInteractive))
          .is_ok());
  ASSERT_TRUE(
      req->add_subjob(make_job("host1", 2, SubjobStartType::kInteractive))
          .is_ok());
  req->start();
  EXPECT_EQ(repairs, 1);
  ASSERT_EQ(req->subjob_count(), 18u);
  EXPECT_EQ(req->subjob_brief(1).value().state, SubjobState::kFailed);
  int submitting = 0;
  for (core::SubjobHandle h = 1; h <= req->subjob_count(); ++h) {
    if (req->subjob_brief(h).value().state == SubjobState::kSubmitting) {
      ++submitting;
    }
  }
  EXPECT_EQ(submitting, 1);
  ASSERT_TRUE(req->commit().is_ok());
  g.grid->run();
  ASSERT_TRUE(outcome.released);
  EXPECT_TRUE(outcome.status.is_ok());
  EXPECT_EQ(outcome.config.total_processes, 2 + 16);
  EXPECT_EQ(req->subjob_brief(2).value().state, SubjobState::kDone);
}

TEST(CoallocationEdge, SynchronousFailureInsideCommitEndsOnce) {
  // commit() starts the pipeline itself; a required subjob that fails
  // there aborts the request before commit() returns.  The terminal
  // callback fires once and commit() reports that it did not commit.
  SmallGrid g(1);
  Outcome outcome;
  int terminals = 0;
  auto cbs = outcome.callbacks();
  auto chained = cbs.on_terminal;
  cbs.on_terminal = [&, chained](const util::Status& s) {
    ++terminals;
    chained(s);
  };
  auto* req = g.coallocator->create_request(cbs);
  req->add_subjob(make_job("nowhere", 2, SubjobStartType::kRequired));
  req->add_subjob(make_job("host1", 2, SubjobStartType::kRequired));
  EXPECT_EQ(req->commit().code(), util::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(req->state(), RequestState::kAborted);
  g.grid->run();
  EXPECT_EQ(terminals, 1);
  EXPECT_FALSE(outcome.released);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
}

TEST(CoallocationEdge, RequestsAreIsolated) {
  // An abort of one request must not disturb another sharing the
  // co-allocator, even against the same hosts.
  SmallGrid g(2, testbed::CostModel::fast(),
              app::StartupProfile{.init_delay = 2 * sim::kSecond});
  Outcome a, b;
  auto* ra = g.coallocator->create_request(a.callbacks());
  auto* rb = g.coallocator->create_request(b.callbacks());
  ra->add_rsl(g.rsl(4, "required"));
  rb->add_rsl(g.rsl(4, "required"));
  ra->commit();
  rb->commit();
  g.grid->engine().schedule_at(sim::kSecond, [&] { ra->abort("stop A"); });
  g.grid->run();
  EXPECT_FALSE(a.released);
  EXPECT_TRUE(b.released);
  EXPECT_TRUE(b.status.is_ok());
}

TEST(CoallocationEdge, OneProcessSubjobAndWideSubjobCoexist) {
  SmallGrid g(2);
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_subjob(make_job("host1", 1, SubjobStartType::kRequired));
  req->add_subjob(make_job("host2", 64, SubjobStartType::kRequired));
  req->commit();
  g.grid->run();
  ASSERT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 65);
  EXPECT_EQ(outcome.config.subjobs[0].size, 1);
  EXPECT_EQ(outcome.config.subjobs[1].rank_base, 1);
}

}  // namespace
}  // namespace grid
