// Unit tests for the retry layer: the retry schedule, gram::Client's
// retried cancel, and how a crash or teardown of the agent ends retried
// operations and handshakes in flight.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/coallocator.hpp"
#include "gram/client.hpp"
#include "gram/protocol.hpp"
#include "net/retry.hpp"
#include "net/rpc.hpp"
#include "testbed/grid.hpp"

namespace grid {
namespace {

// ---- RetrySchedule ---------------------------------------------------------

TEST(RetrySchedule, DoublingBackoffStaysInJitterBand) {
  // Nominal 200, 400, 800 ms before attempts 2..4, each scaled by a draw
  // from [0.8, 1.2].
  for (std::uint64_t stream = 1; stream <= 100; ++stream) {
    net::RetrySchedule schedule(net::RetryPolicy{}, stream);
    sim::Time nominal = 200 * sim::kMillisecond;
    for (int a = 2; a <= net::kRetryAttempts; ++a, nominal *= 2) {
      const sim::Time t = schedule.backoff_before(a);
      EXPECT_GE(t, nominal * 8 / 10) << "stream " << stream << " at " << a;
      EXPECT_LE(t, nominal * 12 / 10) << "stream " << stream << " at " << a;
    }
  }
}

TEST(RetrySchedule, NoBackoffBeforeFirstAttempt) {
  net::RetryPolicy policy;
  net::RetrySchedule schedule(policy, 1);
  EXPECT_EQ(schedule.backoff_before(1), 0);
}

TEST(RetrySchedule, JitterIsDeterministicPerSeedAndStream) {
  const net::RetryPolicy policy{.jitter_seed = 42};
  std::vector<sim::Time> first, second, other_stream;
  {
    net::RetrySchedule s(policy, 7);
    for (int a = 2; a <= 6; ++a) first.push_back(s.backoff_before(a));
  }
  {
    net::RetrySchedule s(policy, 7);
    for (int a = 2; a <= 6; ++a) second.push_back(s.backoff_before(a));
  }
  {
    net::RetrySchedule s(policy, 8);
    for (int a = 2; a <= 6; ++a) other_stream.push_back(s.backoff_before(a));
  }
  EXPECT_EQ(first, second);  // replayable
  EXPECT_NE(first, other_stream);  // decorrelated across calls
}

// ---- retried cancel ---------------------------------------------------------

/// A gatekeeper-like server that answers kMethodJobCancel, and an agent
/// whose gram::Client retries.  Cancel opens no GSI handshake, so the
/// credential is never presented.
struct RetryCancelFixture : ::testing::Test {
  sim::Engine engine;
  net::Network network{engine};
  gsi::CertificateAuthority ca{"test-ca", 7};
  net::Endpoint server{network, "gatekeeper"};
  net::Endpoint agent{network, "agent"};
  gram::Client client{agent, ca, ca.issue("/CN=agent", sim::kHour)};

  RetryCancelFixture() { client.set_retry_policy(net::RetryPolicy{}); }

  /// Deterministic flakiness: the server swallows the first `ignore`
  /// cancels and answers from then on.  Records the call id of each.
  int requests = 0;
  std::vector<std::uint64_t> call_ids;
  void serve_after(int ignore) {
    server.register_method(
        gram::kMethodJobCancel,
        [this, ignore](net::NodeId caller, std::uint64_t id, util::Reader&) {
          call_ids.push_back(id);
          if (++requests <= ignore) return;  // lost in the server
          server.respond(caller, id, {});
        });
  }

  int callbacks = 0;
  util::Status got;
  void cancel() {
    client.cancel(gram::make_job_id(server.id(), 5), 10 * sim::kSecond,
                  [this](const util::Status& status) {
                    ++callbacks;
                    got = status;
                  });
  }
};

TEST_F(RetryCancelFixture, SucceedsAfterLosses) {
  serve_after(2);
  cancel();
  engine.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_TRUE(got.is_ok());
  EXPECT_EQ(requests, 3);
  EXPECT_EQ(client.retry_count(), 0u);
  EXPECT_EQ(network.stats().rpc_retries, 2u);
}

TEST_F(RetryCancelFixture, TicketTakesOneCallIdBeforeTheFirstAttempt) {
  serve_after(1000);
  cancel();
  engine.run();
  // The agent's endpoint is fresh: the ticket is call id 1, and the four
  // attempts follow it on the wire.
  EXPECT_EQ(call_ids, (std::vector<std::uint64_t>{2, 3, 4, 5}));
}

TEST_F(RetryCancelFixture, ExhaustionDeliversSingleTimeout) {
  serve_after(1000);  // never answers
  cancel();
  engine.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(got.code(), util::ErrorCode::kTimeout);
  EXPECT_EQ(got.message(), "rpc timeout after 4 attempt(s)");
  EXPECT_EQ(requests, net::kRetryAttempts);
  // 4 x 3 s attempts + 0.2 + 0.4 + 0.8 s of backoff, each within +-20%.
  EXPECT_GE(engine.now(), 13120 * sim::kMillisecond);
  EXPECT_LE(engine.now(), 13680 * sim::kMillisecond);
  EXPECT_EQ(client.retry_count(), 0u);
}

TEST_F(RetryCancelFixture, DefinitiveErrorIsNotRetried) {
  server.register_method(
      gram::kMethodJobCancel,
      [this](net::NodeId caller, std::uint64_t id, util::Reader&) {
        ++requests;
        server.respond_error(caller, id, util::ErrorCode::kNotFound,
                             "unknown job");
      });
  cancel();
  engine.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(got.code(), util::ErrorCode::kNotFound);
  EXPECT_EQ(requests, 1);
  EXPECT_EQ(network.stats().rpc_retries, 0u);
}

TEST_F(RetryCancelFixture, LateReplyOfEarlierAttemptIsIgnored) {
  // The first reply arrives after its attempt already timed out; the
  // second attempt answers promptly.  Exactly one callback fires.
  server.register_method(
      gram::kMethodJobCancel,
      [this](net::NodeId caller, std::uint64_t id, util::Reader&) {
        ++requests;
        const sim::Time delay = requests == 1 ? 4 * sim::kSecond : 0;
        engine.schedule_after(delay, [this, caller, id] {
          server.respond(caller, id, {});
        });
      });
  cancel();
  engine.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_TRUE(got.is_ok());
  EXPECT_EQ(requests, 2);
}

TEST_F(RetryCancelFixture, ClientCrashEndsRetriedCancel) {
  serve_after(1000);
  cancel();
  // Crash during the first backoff: the backoff timer must not wake a dead
  // client up and transmit.
  engine.run_until(3100 * sim::kMillisecond);
  network.set_node_up(agent.id(), false);
  engine.run();
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(requests, 1);
  EXPECT_EQ(client.retry_count(), 0u);
}

TEST_F(RetryCancelFixture, ClientDestructionWithRetryInFlightIsSafe) {
  serve_after(1000);
  auto endpoint = std::make_unique<net::Endpoint>(network, "doomed");
  auto doomed = std::make_unique<gram::Client>(
      *endpoint, ca, ca.issue("/CN=doomed", sim::kHour));
  doomed->set_retry_policy(net::RetryPolicy{});
  auto count = [this](const util::Status&) { ++callbacks; };
  doomed->cancel(gram::make_job_id(server.id(), 1), sim::kSecond, count);
  // At 3.1 s the first cancel waits out its backoff and the second has an
  // attempt in flight.
  engine.run_until(3050 * sim::kMillisecond);
  doomed->cancel(gram::make_job_id(server.id(), 2), sim::kSecond, count);
  engine.run_until(3100 * sim::kMillisecond);
  EXPECT_EQ(doomed->retry_count(), 2u);
  doomed.reset();
  endpoint.reset();
  EXPECT_EQ(engine.pending(), 0u);
  engine.run();
  EXPECT_EQ(callbacks, 0);
}

// ---- the agent's lifetime against in-flight handshakes and retries ----------

/// An agent cut off from its gatekeeper, with paper costs: a handshake's
/// first attempt signs for 120 ms and times out 5 s after INIT, at 5.12 s;
/// a retried cancel's first attempt times out at 3 s.  Either backoff
/// lasts at least 160 ms.
struct CutOffAgent : ::testing::Test {
  CutOffAgent() {
    grid.add_host("site1", 16);
    mech = grid.make_coallocator("agent", "/CN=agent");
    gatekeeper = grid.host("site1")->contact();
    grid.network().set_partitioned(mech->endpoint().id(), gatekeeper, true);
  }

  void submit() {
    mech->gram().submit(gatekeeper, "&(count=1)(executable=app)",
                        5 * sim::kSecond,
                        [this](util::Result<gram::JobId>) { ++callbacks; });
  }

  void cancel() {
    mech->gram().cancel(gram::make_job_id(gatekeeper, 1), 5 * sim::kSecond,
                        [this](const util::Status&) { ++callbacks; });
  }

  /// Runs to `t` and crashes the agent's host; returns the sends so far.
  std::uint64_t crash_agent_at(sim::Time t) {
    grid.run_until(t);
    grid.network().set_node_up(mech->endpoint().id(), false);
    return grid.network().stats().sent;
  }

  testbed::Grid grid{testbed::CostModel::paper()};
  std::unique_ptr<core::Coallocator> mech;
  net::NodeId gatekeeper = net::kInvalidNode;
  int callbacks = 0;
};

TEST_F(CutOffAgent, CrashInHandshakeBackoffEndsItSilently) {
  mech->gram().set_retry_policy(net::RetryPolicy{});
  submit();
  const std::uint64_t sent = crash_agent_at(5200 * sim::kMillisecond);
  grid.run();
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(grid.network().stats().sent, sent);  // no INIT after the crash
  EXPECT_EQ(mech->gram().retry_count(), 0u);
}

TEST_F(CutOffAgent, CrashInRetriedCancelEndsItSilently) {
  mech->gram().set_retry_policy(net::RetryPolicy{});
  cancel();
  const std::uint64_t sent = crash_agent_at(3100 * sim::kMillisecond);
  grid.run();
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(grid.network().stats().sent, sent);
  EXPECT_EQ(mech->gram().retry_count(), 0u);
}

TEST_F(CutOffAgent, CrashInClientSignEndsTheHandshakeSilently) {
  submit();
  const std::uint64_t sent = crash_agent_at(50 * sim::kMillisecond);
  grid.run();
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(grid.network().stats().sent, sent);
}

// Destroying the agent must take every timer it scheduled with it: the
// engine holds nothing once the Coallocator is gone, so running on cannot
// call into freed memory.
TEST_F(CutOffAgent, DestroyInHandshakeBackoffLeavesNoEvent) {
  mech->gram().set_retry_policy(net::RetryPolicy{});
  submit();
  grid.run_until(5200 * sim::kMillisecond);
  mech.reset();
  ASSERT_EQ(grid.engine().pending(), 0u);
  grid.run();
  EXPECT_EQ(callbacks, 0);
}

TEST_F(CutOffAgent, DestroyInClientSignLeavesNoEvent) {
  submit();  // no retry policy: the path every subjob takes
  grid.run_until(50 * sim::kMillisecond);
  mech.reset();
  ASSERT_EQ(grid.engine().pending(), 0u);
  grid.run();
  EXPECT_EQ(callbacks, 0);
}

}  // namespace
}  // namespace grid
