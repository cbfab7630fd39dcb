// Unit tests for the RPC retry layer: the retry schedule and
// Endpoint::retrying_call() semantics.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/retry.hpp"
#include "net/rpc.hpp"

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

// ---- retrying_call ---------------------------------------------------------

struct RetryRpcFixture : ::testing::Test {
  sim::Engine engine;
  net::Network network{engine};
  net::Endpoint client{network, "client"};
  net::Endpoint server{network, "server"};

  /// Deterministic flakiness: the server swallows the first `ignore`
  /// requests and answers from then on.
  int requests = 0;
  void serve_after(int ignore) {
    server.register_method(
        1, [this, ignore](net::NodeId caller, std::uint64_t id,
                          util::Reader&) {
          if (++requests <= ignore) return;  // lost in the server
          util::Writer w;
          w.u32(7);
          server.respond(caller, id, w.take());
        });
  }

  net::RetryPolicy policy;
};

TEST_F(RetryRpcFixture, SucceedsAfterLosses) {
  serve_after(2);
  int callbacks = 0;
  util::Status got;
  std::uint32_t value = 0;
  client.retrying_call(server.id(), 1, {}, policy,
                       [&](const util::Status& status, util::Reader& reply) {
                         ++callbacks;
                         got = status;
                         if (status.is_ok()) value = reply.u32();
                       });
  engine.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_TRUE(got.is_ok());
  EXPECT_EQ(value, 7u);
  EXPECT_EQ(requests, 3);
  EXPECT_EQ(client.pending_retrying_calls(), 0u);
  EXPECT_EQ(network.stats().rpc_retries, 2u);
  EXPECT_EQ(network.stats().rpc_retry_successes, 1u);
  EXPECT_EQ(network.stats().rpc_retry_exhausted, 0u);
}

TEST_F(RetryRpcFixture, ExhaustionDeliversSingleTimeout) {
  serve_after(1000);  // never answers
  int callbacks = 0;
  util::Status got;
  client.retrying_call(server.id(), 1, {}, policy,
                       [&](const util::Status& status, util::Reader&) {
                         ++callbacks;
                         got = status;
                       });
  engine.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(got.code(), util::ErrorCode::kTimeout);
  EXPECT_EQ(requests, net::kRetryAttempts);
  // 4 x 3 s attempts + 0.2 + 0.4 + 0.8 s of backoff, each within +-20%.
  EXPECT_GE(engine.now(), 13120 * sim::kMillisecond);
  EXPECT_LE(engine.now(), 13680 * sim::kMillisecond);
  EXPECT_EQ(network.stats().rpc_retry_exhausted, 1u);
  EXPECT_EQ(client.pending_retrying_calls(), 0u);
}

TEST_F(RetryRpcFixture, DefinitiveErrorIsNotRetried) {
  server.register_method(
      1, [this](net::NodeId caller, std::uint64_t id, util::Reader&) {
        ++requests;
        server.respond_error(caller, id, util::ErrorCode::kPermissionDenied,
                             "nope");
      });
  int callbacks = 0;
  util::Status got;
  client.retrying_call(server.id(), 1, {}, policy,
                       [&](const util::Status& status, util::Reader&) {
                         ++callbacks;
                         got = status;
                       });
  engine.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(got.code(), util::ErrorCode::kPermissionDenied);
  EXPECT_EQ(requests, 1);
  EXPECT_EQ(network.stats().rpc_retries, 0u);
}

TEST_F(RetryRpcFixture, LateReplyOfEarlierAttemptIsIgnored) {
  // The first reply arrives after its attempt already timed out; the
  // second attempt answers promptly.  Exactly one callback fires.
  server.register_method(
      1, [this](net::NodeId caller, std::uint64_t id, util::Reader&) {
        ++requests;
        const sim::Time delay = requests == 1 ? 4 * sim::kSecond : 0;
        engine.schedule_after(delay, [this, caller, id] {
          util::Writer w;
          w.u32(static_cast<std::uint32_t>(requests));
          server.respond(caller, id, w.take());
        });
      });
  int callbacks = 0;
  client.retrying_call(server.id(), 1, {}, policy,
                       [&](const util::Status& status, util::Reader&) {
                         ++callbacks;
                         EXPECT_TRUE(status.is_ok());
                       });
  engine.run();
  EXPECT_EQ(callbacks, 1);
}

TEST_F(RetryRpcFixture, ClientCrashDropsRetryingCalls) {
  serve_after(1000);
  int callbacks = 0;
  client.retrying_call(server.id(), 1, {}, policy,
                       [&](const util::Status&, util::Reader&) {
                         ++callbacks;
                       });
  // Crash during the first backoff: the backoff timer must not wake a dead
  // client up and transmit.
  engine.schedule_after(3100 * sim::kMillisecond, [&] {
    network.set_node_up(client.id(), false);
  });
  engine.run();
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(requests, 1);
  EXPECT_EQ(client.pending_retrying_calls(), 0u);
}

TEST_F(RetryRpcFixture, EndpointDestructionWithRetryInFlightIsSafe) {
  serve_after(1000);
  auto doomed = std::make_unique<net::Endpoint>(network, "doomed");
  int callbacks = 0;
  doomed->retrying_call(server.id(), 1, {}, policy,
                        [&](const util::Status&, util::Reader&) {
                          ++callbacks;
                        });
  doomed->call(server.id(), 1, {}, sim::kSecond,
               [&](const util::Status&, util::Reader&) { ++callbacks; });
  doomed.reset();  // outstanding attempt + backoff timer + plain call
  engine.run();    // must not touch freed memory
  EXPECT_EQ(callbacks, 0);
}

}  // namespace
}  // namespace grid
