// Unit tests for the GRAM layer: gatekeeper request pipeline, job manager
// lifecycle, state callbacks, NIS costs, and failure modes.
#include <gtest/gtest.h>

#include <vector>

#include "app/behaviors.hpp"
#include "gram/client.hpp"
#include "gram/nis.hpp"
#include "simkit/allocguard.hpp"
#include "testbed/grid.hpp"

namespace grid {
namespace {

struct GramFixture : ::testing::Test {
  GramFixture() : grid_(testbed::CostModel::fast()) {
    grid_.add_host("rm1", 64);
    app::install_app(grid_.executables(), "app", app::StartupProfile{},
                     &stats_);
    cred_ = grid_.make_user("/CN=alice", "alice");
    endpoint_ = std::make_unique<net::Endpoint>(grid_.network(), "client");
    client_ = std::make_unique<gram::Client>(*endpoint_, grid_.ca(), cred_,
                                             grid_.costs().gsi);
  }

  net::NodeId rm1() { return grid_.host("rm1")->contact(); }

  static std::string rsl(int count, const std::string& exe = "app") {
    return "&(resourceManagerContact=rm1)(count=" + std::to_string(count) +
           ")(executable=" + exe + ")";
  }

  testbed::Grid grid_{testbed::CostModel::fast()};
  app::BarrierStats stats_;
  gsi::Credential cred_;
  std::unique_ptr<net::Endpoint> endpoint_;
  std::unique_ptr<gram::Client> client_;
};

TEST_F(GramFixture, JobRunsThroughFullLifecycle) {
  util::Result<gram::JobId> accepted{
      util::Status(util::ErrorCode::kInternal, "unset")};
  std::vector<gram::JobState> states;
  client_->submit(
      rm1(), rsl(4), 10 * sim::kSecond,
      [&](util::Result<gram::JobId> r) { accepted = std::move(r); },
      [&](const gram::JobStateChange& c) { states.push_back(c.state); });
  grid_.run();
  ASSERT_TRUE(accepted.is_ok()) << accepted.status().to_string();
  EXPECT_EQ(states, (std::vector<gram::JobState>{gram::JobState::kPending,
                                                 gram::JobState::kActive,
                                                 gram::JobState::kDone}));
  // Without a co-allocator the app runs as a plain GRAM job.
  EXPECT_EQ(grid_.host("rm1")->gatekeeper().job_count(), 1u);
  auto state = grid_.host("rm1")->gatekeeper().job_state(accepted.value());
  ASSERT_TRUE(state.is_ok());
  EXPECT_EQ(state.value(), gram::JobState::kDone);
}

TEST_F(GramFixture, SubmitWithoutStateCallbackStillAccepted) {
  bool accepted = false;
  client_->submit(rm1(), rsl(1), 10 * sim::kSecond,
                  [&](util::Result<gram::JobId> r) { accepted = r.is_ok(); });
  grid_.run();
  EXPECT_TRUE(accepted);
}

TEST_F(GramFixture, BadRslRejected) {
  util::Status status;
  client_->submit(rm1(), "&(count=", 10 * sim::kSecond,
                  [&](util::Result<gram::JobId> r) { status = r.status(); });
  grid_.run();
  EXPECT_EQ(status.code(), util::ErrorCode::kInvalidArgument);
  // Nesting too deep to parse is rejected like any other bad RSL.
  util::Status deep;
  client_->submit(rm1(), std::string(100000, '('), 10 * sim::kSecond,
                  [&](util::Result<gram::JobId> r) { deep = r.status(); });
  grid_.run();
  EXPECT_EQ(deep.code(), util::ErrorCode::kInvalidArgument);
}

TEST_F(GramFixture, MissingExecutableFailsJob) {
  std::vector<gram::JobStateChange> changes;
  client_->submit(
      rm1(), rsl(2, "no-such-binary"), 10 * sim::kSecond,
      [](util::Result<gram::JobId>) {},
      [&](const gram::JobStateChange& c) { changes.push_back(c); });
  grid_.run();
  ASSERT_FALSE(changes.empty());
  EXPECT_EQ(changes.back().state, gram::JobState::kFailed);
  EXPECT_EQ(changes.back().error, util::ErrorCode::kNotFound);
  EXPECT_EQ(changes.back().message, "executable not found: no-such-binary");
}

// A job whose process crashes reports that crash, not the cancel of its
// scheduler job that follows it, whichever scheduler runs it.
TEST_F(GramFixture, CrashedProcessIsTheReportedCause) {
  grid_.add_host("batch1", 8, testbed::SchedulerKind::kFcfs);
  app::StartupProfile crash;
  crash.failure_probability = 1.0;
  crash.mode_on_chance = app::FailureMode::kCrashBeforeBarrier;
  app::install_app(grid_.executables(), "crashapp", crash, &stats_);
  for (const std::string host : {"rm1", "batch1"}) {
    SCOPED_TRACE(host);
    std::vector<gram::JobStateChange> changes;
    client_->submit(
        grid_.host(host)->contact(),
        "&(resourceManagerContact=" + host + ")(count=2)(executable=crashapp)",
        10 * sim::kSecond, [](util::Result<gram::JobId>) {},
        [&](const gram::JobStateChange& c) { changes.push_back(c); });
    grid_.run();
    ASSERT_FALSE(changes.empty());
    EXPECT_EQ(changes.back().state, gram::JobState::kFailed);
    EXPECT_EQ(changes.back().error, util::ErrorCode::kInternal);
    EXPECT_EQ(changes.back().message,
              "process 0 failed: process crashed during initialization");
  }
}

TEST_F(GramFixture, UnknownContactAttributeStillRouted) {
  // The resourceManagerContact in the RSL is advisory at the GRAM level;
  // the request goes to whichever gatekeeper the client addressed.
  bool ok = false;
  client_->submit(rm1(),
                  "&(resourceManagerContact=elsewhere)(executable=app)",
                  10 * sim::kSecond,
                  [&](util::Result<gram::JobId> r) { ok = r.is_ok(); });
  grid_.run();
  EXPECT_TRUE(ok);
}

TEST_F(GramFixture, UnmappedUserDenied) {
  net::Endpoint ep(grid_.network(), "mallory");
  gram::Client mallory(ep, grid_.ca(),
                       grid_.ca().issue("/CN=mallory", sim::kTimeNever / 2),
                       grid_.costs().gsi);
  util::Status status;
  mallory.submit(rm1(), rsl(1), 10 * sim::kSecond,
                 [&](util::Result<gram::JobId> r) { status = r.status(); });
  grid_.run();
  EXPECT_EQ(status.code(), util::ErrorCode::kPermissionDenied);
}

TEST_F(GramFixture, ForgedSessionTokenDenied) {
  // Bypass the client and send a job request with a made-up token.
  gram::JobRequestArgs args;
  args.session_token = 0xdead;
  args.rsl = rsl(1);
  util::Writer w;
  args.encode(w);
  util::Status status;
  endpoint_->call(rm1(), gram::kMethodJobRequest, w.take(), 10 * sim::kSecond,
                  [&](const util::Status& s, util::Reader&) { status = s; });
  grid_.run();
  EXPECT_EQ(status.code(), util::ErrorCode::kPermissionDenied);
}

TEST_F(GramFixture, CancelRunningJob) {
  app::StartupProfile forever;
  forever.run_time = sim::kHour;
  app::install_app(grid_.executables(), "longapp", forever, &stats_);
  util::Result<gram::JobId> accepted{
      util::Status(util::ErrorCode::kInternal, "unset")};
  std::vector<gram::JobStateChange> changes;
  client_->submit(
      rm1(), rsl(4, "longapp"), 10 * sim::kSecond,
      [&](util::Result<gram::JobId> r) { accepted = std::move(r); },
      [&](const gram::JobStateChange& c) { changes.push_back(c); });
  grid_.run_until(5 * sim::kSecond);
  ASSERT_TRUE(accepted.is_ok());
  util::Status cancel_status(util::ErrorCode::kInternal, "unset");
  client_->cancel(accepted.value(), 10 * sim::kSecond,
                  [&](util::Status s) { cancel_status = s; });
  grid_.run();
  EXPECT_TRUE(cancel_status.is_ok());
  ASSERT_FALSE(changes.empty());
  EXPECT_EQ(changes.back().state, gram::JobState::kFailed);
  EXPECT_EQ(changes.back().error, util::ErrorCode::kAborted);
  EXPECT_EQ(changes.back().message, "job cancelled");
  EXPECT_LT(sim::to_seconds(grid_.engine().now()), 3600.0);
}

TEST_F(GramFixture, CancelUnknownJobFails) {
  util::Status status;
  client_->cancel(gram::make_job_id(rm1(), 999999), 10 * sim::kSecond,
                  [&](util::Status s) { status = s; });
  grid_.run();
  EXPECT_EQ(status.code(), util::ErrorCode::kNotFound);
}

TEST_F(GramFixture, ReapedJobsAnswerAsBefore) {
  // One job finishes, one fails at exec.  A later cancel lets the
  // gatekeeper reap both managers; every query answers from the final
  // states exactly as it did while the managers lived.
  gram::JobId done = 0;
  gram::JobId failed = 0;
  client_->submit(rm1(), rsl(2), 10 * sim::kSecond,
                  [&](util::Result<gram::JobId> r) {
                    if (r.is_ok()) done = r.value();
                  });
  client_->submit(rm1(), rsl(2, "no-such-binary"), 10 * sim::kSecond,
                  [&](util::Result<gram::JobId> r) {
                    if (r.is_ok()) failed = r.value();
                  });
  grid_.run();
  ASSERT_NE(done, 0u);
  ASSERT_NE(failed, 0u);
  gram::Gatekeeper& gk = grid_.host("rm1")->gatekeeper();
  EXPECT_EQ(gk.job_count(), 2u);  // no request since they finished

  const gram::JobId never_issued = done + 1000;
  std::vector<util::Status> cancels;
  for (const gram::JobId id : {done, never_issued}) {
    client_->cancel(id, 10 * sim::kSecond,
                    [&](util::Status s) { cancels.push_back(std::move(s)); });
  }
  grid_.run();
  EXPECT_EQ(gk.job_count(), 0u);
  ASSERT_EQ(cancels.size(), 2u);
  EXPECT_TRUE(cancels[0].is_ok());  // cancelling a finished job succeeds
  EXPECT_EQ(cancels[1].code(), util::ErrorCode::kNotFound);
  EXPECT_EQ(cancels[1].message(), "unknown job");

  EXPECT_EQ(gk.job_state(done).value(), gram::JobState::kDone);
  EXPECT_EQ(gk.job_state(failed).value(), gram::JobState::kFailed);
  EXPECT_EQ(gk.job_state(never_issued).status().code(),
            util::ErrorCode::kNotFound);
  // The same sequence number under another gatekeeper's address.
  EXPECT_EQ(gk.job_state(done & 0xffffffff).status().code(),
            util::ErrorCode::kNotFound);
  // A crash fails every job the host ever accepted, reaped ones included.
  grid_.host("rm1")->crash();
  EXPECT_EQ(gk.job_state(done).value(), gram::JobState::kFailed);
}

TEST_F(GramFixture, JobIsReapedOnlyAfterItsTerminalInstant) {
  // Two cancels reach the gatekeeper at the same instant.  The first ends
  // the job, and its processes' teardown runs later in that instant, so
  // the second must not reap it yet.
  app::StartupProfile forever;
  forever.run_time = sim::kHour;
  app::install_app(grid_.executables(), "longapp", forever, &stats_);
  gram::JobId id = 0;
  client_->submit(rm1(), rsl(4, "longapp"), 10 * sim::kSecond,
                  [&](util::Result<gram::JobId> r) {
                    if (r.is_ok()) id = r.value();
                  });
  grid_.run_until(5 * sim::kSecond);
  ASSERT_NE(id, 0u);
  gram::Gatekeeper& gk = grid_.host("rm1")->gatekeeper();
  ASSERT_EQ(gk.job_state(id).value(), gram::JobState::kActive);
  std::vector<util::Status> cancels;
  auto cancel = [&] {
    client_->cancel(id, 10 * sim::kSecond,
                    [&](util::Status s) { cancels.push_back(std::move(s)); });
  };
  cancel();
  cancel();
  grid_.run();
  EXPECT_EQ(gk.job_count(), 1u);
  EXPECT_EQ(gk.job_state(id).value(), gram::JobState::kFailed);
  cancel();  // a later request reaps it
  grid_.run();
  EXPECT_EQ(gk.job_count(), 0u);
  EXPECT_EQ(gk.job_state(id).value(), gram::JobState::kFailed);
  ASSERT_EQ(cancels.size(), 3u);
  for (const util::Status& s : cancels) EXPECT_TRUE(s.is_ok());
}

TEST_F(GramFixture, CrashedHostTimesOutSubmission) {
  grid_.host("rm1")->crash();
  util::Status status;
  client_->submit(rm1(), rsl(1), 2 * sim::kSecond,
                  [&](util::Result<gram::JobId> r) { status = r.status(); });
  grid_.run();
  EXPECT_EQ(status.code(), util::ErrorCode::kTimeout);
}

TEST_F(GramFixture, HostCrashMidJobSilencesCallbacks) {
  app::StartupProfile forever;
  forever.run_time = sim::kHour;
  app::install_app(grid_.executables(), "longapp", forever, &stats_);
  std::vector<gram::JobState> states;
  client_->submit(
      rm1(), rsl(2, "longapp"), 10 * sim::kSecond,
      [](util::Result<gram::JobId>) {},
      [&](const gram::JobStateChange& c) { states.push_back(c.state); });
  grid_.run_until(5 * sim::kSecond);
  ASSERT_FALSE(states.empty());
  EXPECT_EQ(states.back(), gram::JobState::kActive);
  const auto before = states.size();
  grid_.host("rm1")->crash();
  grid_.run();
  EXPECT_EQ(states.size(), before);  // a dead host reports nothing
}

TEST_F(GramFixture, RestoredHostAcceptsNewWork) {
  grid_.host("rm1")->crash();
  grid_.run();
  grid_.host("rm1")->restore();
  bool ok = false;
  client_->submit(rm1(), rsl(1), 10 * sim::kSecond,
                  [&](util::Result<gram::JobId> r) { ok = r.is_ok(); });
  grid_.run();
  EXPECT_TRUE(ok);
}

TEST_F(GramFixture, NisLookupsServedPerRequest) {
  const auto before = grid_.nis().lookups_served();
  bool ok = false;
  client_->submit(rm1(), rsl(1), 10 * sim::kSecond,
                  [&](util::Result<gram::JobId> r) { ok = r.is_ok(); });
  grid_.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(grid_.nis().lookups_served(), before + 1);
}

TEST_F(GramFixture, CrashedNisFailsRequests) {
  grid_.network().set_node_up(grid_.nis().id(), false);
  util::Status status;
  client_->submit(rm1(), rsl(1), 60 * sim::kSecond,
                  [&](util::Result<gram::JobId> r) { status = r.status(); });
  grid_.run();
  EXPECT_EQ(status.code(), util::ErrorCode::kUnavailable);
}

// A reply whose group count (2^62) is far past what it holds is reported
// as malformed; the client must not size a vector from the count.
TEST(NisClient, HugeGroupCountReplyIsMalformed) {
  sim::Engine engine;
  net::Network network{engine};
  net::Endpoint client{network, "client"};
  net::Endpoint fake_nis{network, "fake-nis"};
  fake_nis.register_method(
      gram::kMethodInitgroups,
      [&](net::NodeId caller, std::uint64_t id, util::Reader&) {
        util::Writer w;
        w.varint(std::uint64_t{1} << 62);
        fake_nis.respond(caller, id, w.take());
      });
  gram::NisClient nis(client, fake_nis.id());
  int callbacks = 0;
  util::Status status;
  nis.initgroups("alice", sim::kSecond, [&](const util::Status& groups) {
    ++callbacks;
    status = groups;
  });
  engine.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(status.code(), util::ErrorCode::kInternal);
  EXPECT_EQ(status.message(), "malformed initgroups reply");
}

// The gatekeeper only checks that initgroups worked, so the reply's group
// list costs the round trip nothing: 8 groups allocate no more than none.
TEST(NisClient, GroupListCostsNoAllocations) {
  sim::Engine engine;
  net::Network network{engine};
  net::Endpoint client{network, "client"};
  gram::NisServer server(network, sim::kMillisecond);
  server.add_user("alice", {"wheel", "grid", "mpi", "hpc", "staff", "dev",
                            "ops", "audit"});
  gram::NisClient nis(client, server.id());
  auto round_trip = [&](const std::string& user) {
    util::Status status(util::ErrorCode::kInternal, "unset");
    sim::AllocGuard guard;
    nis.initgroups(user, sim::kSecond,
                   [&status](const util::Status& s) { status = s; });
    engine.run();
    const std::uint64_t allocations = guard.allocations();
    EXPECT_TRUE(status.is_ok()) << user;
    return allocations;
  };
  // Warm the endpoints' call tables and the network queues first.
  round_trip("alice");
  round_trip("bob");
  const std::uint64_t none = round_trip("bob");  // primary group only
  const std::uint64_t eight = round_trip("alice");
  EXPECT_LE(eight, none);
}

TEST_F(GramFixture, BatchHostQueuesUntilProcessorsFree) {
  grid_.add_host("batch1", 8, testbed::SchedulerKind::kFcfs);
  app::StartupProfile slow;
  slow.run_time = 30 * sim::kSecond;
  app::install_app(grid_.executables(), "slowapp", slow, &stats_);
  std::vector<sim::Time> active_times;
  auto submit_one = [&] {
    client_->submit(
        grid_.host("batch1")->contact(),
        "&(resourceManagerContact=batch1)(count=8)(executable=slowapp)",
        10 * sim::kSecond, [](util::Result<gram::JobId>) {},
        [&](const gram::JobStateChange& c) {
          if (c.state == gram::JobState::kActive) {
            active_times.push_back(grid_.engine().now());
          }
        });
  };
  submit_one();
  submit_one();
  grid_.run();
  ASSERT_EQ(active_times.size(), 2u);
  // The second 8-processor job waited for the first to drain (~30 s).
  EXPECT_GT(active_times[1] - active_times[0], 25 * sim::kSecond);
}

/// Behaviour that records what the process sees of its context.
class IntrospectApp final : public gram::ProcessBehavior {
 public:
  struct Seen {
    std::vector<std::string> args;
    std::string home;
    std::int32_t count = 0;
    std::string host;
  };
  explicit IntrospectApp(Seen* out) : out_(out) {}
  void start(gram::ProcessApi& api) override {
    if (api.local_rank() == 0) {
      out_->args = api.arguments();
      out_->home = api.getenv("HOME");
      out_->count = api.local_count();
      out_->host = api.host_name();
    }
    api.exit(true, "");
  }

 private:
  Seen* out_;
};

TEST_F(GramFixture, ArgumentsAndEnvironmentReachProcesses) {
  IntrospectApp::Seen seen;
  grid_.executables().install("introspect", [&seen] {
    return std::make_unique<IntrospectApp>(&seen);
  });
  bool ok = false;
  client_->submit(rm1(),
                  "&(resourceManagerContact=rm1)(count=3)"
                  "(executable=introspect)(arguments=-v --fast input.dat)"
                  "(environment=(HOME /home/alice)(MODE batch))",
                  10 * sim::kSecond,
                  [&](util::Result<gram::JobId> r) { ok = r.is_ok(); });
  grid_.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(seen.args,
            (std::vector<std::string>{"-v", "--fast", "input.dat"}));
  EXPECT_EQ(seen.home, "/home/alice");
  EXPECT_EQ(seen.count, 3);
  EXPECT_EQ(seen.host, "rm1");
}

// A GRID_DUROC_CONTACT that does not fit a node id names no co-allocator:
// the app runs as a plain job and ends DONE without checking in.  Cut to
// 32 bits, 4294967297 would be node 1, where both processes would check in
// and wait for a release that never comes, leaving the job ACTIVE.
TEST_F(GramFixture, OutOfRangeDurocContactRunsAsPlainJob) {
  std::vector<gram::JobState> states;
  client_->submit(
      rm1(), rsl(2) + "(environment=(GRID_DUROC_CONTACT 4294967297))",
      10 * sim::kSecond, [](util::Result<gram::JobId>) {},
      [&](const gram::JobStateChange& c) { states.push_back(c.state); });
  grid_.run();
  ASSERT_FALSE(states.empty());
  EXPECT_EQ(states.back(), gram::JobState::kDone);
  EXPECT_EQ(stats_.checkins_ok, 0);
}

TEST_F(GramFixture, MaxWallTimeEnforcedFromRsl) {
  app::StartupProfile forever;
  forever.run_time = sim::kHour;
  app::install_app(grid_.executables(), "longapp", forever, &stats_);
  std::vector<gram::JobStateChange> changes;
  client_->submit(
      rm1(),
      "&(resourceManagerContact=rm1)(count=2)(executable=longapp)"
      "(maxWallTime=5)",  // five minutes
      10 * sim::kSecond, [](util::Result<gram::JobId>) {},
      [&](const gram::JobStateChange& c) { changes.push_back(c); });
  grid_.run();
  ASSERT_FALSE(changes.empty());
  EXPECT_EQ(changes.back().state, gram::JobState::kFailed);
  EXPECT_EQ(changes.back().error, util::ErrorCode::kTimeout);
  EXPECT_EQ(changes.back().message, "wall time limit exceeded");
  EXPECT_LT(grid_.engine().now(), 6 * sim::kMinute);
  EXPECT_GE(grid_.engine().now(), 5 * sim::kMinute);
}

TEST_F(GramFixture, PaperCostsProduceTwoSecondSubmission) {
  // With the calibrated (paper) cost model a single GRAM submission takes
  // ~2 s to ACTIVE (Figure 2).
  testbed::Grid grid(testbed::CostModel::paper());
  grid.add_host("rm", 64);
  app::BarrierStats stats;
  app::install_app(grid.executables(), "app", app::StartupProfile{}, &stats);
  net::Endpoint ep(grid.network(), "client");
  gram::Client client(ep, grid.ca(), grid.make_user("/CN=u", "u"),
                      grid.costs().gsi);
  sim::Time active_at = -1;
  client.submit(
      grid.host("rm")->contact(),
      "&(resourceManagerContact=rm)(count=16)(executable=app)",
      30 * sim::kSecond, [](util::Result<gram::JobId>) {},
      [&](const gram::JobStateChange& c) {
        if (c.state == gram::JobState::kActive) active_at = grid.engine().now();
      });
  grid.run();
  ASSERT_GE(active_at, 0);
  EXPECT_NEAR(sim::to_seconds(active_at), 2.0, 0.25);
}

}  // namespace
}  // namespace grid
