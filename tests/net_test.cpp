// Unit tests for the network simulation and the RPC layer.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "app/failure.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "simkit/allocguard.hpp"

namespace grid {
namespace {

/// A node that records everything delivered to it.  Message itself is
/// move-only (it holds the pooled payload buffer), so the recorder copies
/// the fields it wants to inspect.
class Recorder : public net::Node {
 public:
  struct Received {
    net::NodeId src = net::kInvalidNode;
    std::uint32_t kind = 0;
    util::Bytes payload;
  };

  void handle_message(const net::Message& msg) override {
    messages.push_back({msg.src, msg.kind, msg.payload.bytes()});
  }
  void on_crash() override { ++crashes; }

  std::vector<Received> messages;
  int crashes = 0;
};

struct NetFixture : ::testing::Test {
  sim::Engine engine;
  net::Network network{engine};
  Recorder a, b;
  net::NodeId na = network.attach(&a);
  net::NodeId nb = network.attach(&b);
};

TEST_F(NetFixture, DeliversWithLatency) {
  network.set_latency_model(
      std::make_unique<net::FixedLatency>(5 * sim::kMillisecond));
  util::Writer w;
  for (std::uint8_t v : {1, 2, 3}) w.u8(v);
  network.send(na, nb, 7, w.take());
  engine.run();
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(engine.now(), 5 * sim::kMillisecond);
  EXPECT_EQ(b.messages[0].kind, 7u);
  EXPECT_EQ(b.messages[0].src, na);
  EXPECT_EQ(b.messages[0].payload, (util::Bytes{1, 2, 3}));
}

TEST_F(NetFixture, PreservesFifoPerPair) {
  for (std::uint32_t i = 0; i < 10; ++i) network.send(na, nb, i, {});
  engine.run();
  ASSERT_EQ(b.messages.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(b.messages[i].kind, i);
}

TEST_F(NetFixture, SendFromUnknownNodeFails) {
  EXPECT_FALSE(network.send(9999, nb, 1, {}).is_ok());
}

TEST_F(NetFixture, SendToUnknownNodeIsSilentlyDropped) {
  EXPECT_TRUE(network.send(na, 9999, 1, {}).is_ok());
  engine.run();
  EXPECT_EQ(network.stats().dropped_down, 1u);
}

TEST_F(NetFixture, CrashedDestinationDropsInFlight) {
  network.send(na, nb, 1, {});
  network.set_node_up(nb, false);
  engine.run();
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(b.crashes, 1);
  EXPECT_EQ(network.stats().dropped_down, 1u);
}

TEST_F(NetFixture, CrashedSourceCannotTransmit) {
  network.set_node_up(na, false);
  network.send(na, nb, 1, {});
  engine.run();
  EXPECT_TRUE(b.messages.empty());
}

TEST_F(NetFixture, RestoredNodeReceivesAgain) {
  network.set_node_up(nb, false);
  network.set_node_up(nb, true);
  network.send(na, nb, 1, {});
  engine.run();
  EXPECT_EQ(b.messages.size(), 1u);
}

TEST_F(NetFixture, PartitionBlocksBothDirections) {
  network.set_partitioned(na, nb, true);
  network.send(na, nb, 1, {});
  network.send(nb, na, 2, {});
  engine.run();
  EXPECT_TRUE(a.messages.empty());
  EXPECT_TRUE(b.messages.empty());
  EXPECT_EQ(network.stats().dropped_partition, 2u);
  network.set_partitioned(na, nb, false);
  network.send(na, nb, 3, {});
  engine.run();
  EXPECT_EQ(b.messages.size(), 1u);
}

TEST_F(NetFixture, PartitionInjectedMidFlightSwallowsMessage) {
  network.send(na, nb, 1, {});
  network.set_partitioned(na, nb, true);  // before delivery event fires
  engine.run();
  EXPECT_TRUE(b.messages.empty());
}

TEST_F(NetFixture, RandomLossDropsApproximatelyP) {
  network.set_drop_probability(0.5);
  for (int i = 0; i < 2000; ++i) network.send(na, nb, 1, {});
  engine.run();
  EXPECT_NEAR(static_cast<double>(b.messages.size()), 1000.0, 120.0);
  EXPECT_EQ(network.stats().dropped_random + b.messages.size(), 2000u);
}

TEST_F(NetFixture, StatsCountBytes) {
  util::Writer w;
  w.u32(0);
  network.send(na, nb, 1, w.take());
  engine.run();
  EXPECT_EQ(network.stats().sent, 1u);
  EXPECT_EQ(network.stats().delivered, 1u);
  EXPECT_EQ(network.stats().bytes_sent, 4u);
  EXPECT_EQ(network.stats().bytes_delivered, 4u);
}

TEST_F(NetFixture, PayloadCountersTrackPoolReuse) {
  // Send-deliver cycles return each payload buffer to the pool before the
  // next send, so at most one message in the sequence can need a fresh
  // heap buffer (none, if the thread's pool is already warm).
  for (std::uint64_t i = 0; i < 8; ++i) {
    util::Writer w;
    w.u64(i);
    network.send(na, nb, 1, w.take());
    engine.run();
  }
  const net::NetworkStats& s = network.stats();
  EXPECT_EQ(s.payloads_fresh + s.payloads_recycled, 8u);
  EXPECT_LE(s.payloads_fresh, 1u);
  EXPECT_EQ(s.bytes_sent, 64u);
  EXPECT_EQ(s.bytes_delivered, 64u);
  EXPECT_EQ(b.messages.size(), 8u);
}

// ---- determinism contract (documented on Network::send) --------------------

TEST(NetworkDeterminism, DroppedSendDoesNotAdvanceLatencyRng) {
  constexpr sim::Time kBase = 10 * sim::kMillisecond;
  constexpr sim::Time kJitter = 5 * sim::kMillisecond;
  // Reference: the first delivery time on a fresh jitter stream.
  sim::Engine e1;
  net::Network n1{e1};
  Recorder r1a, r1b;
  const net::NodeId a1 = n1.attach(&r1a);
  const net::NodeId b1 = n1.attach(&r1b);
  n1.set_latency_model(
      std::make_unique<net::JitterLatency>(kBase, kJitter, sim::Rng(42)));
  n1.send(a1, b1, 1, {});
  e1.run();
  const sim::Time t_ref = e1.now();

  // Same latency stream, but a send that is dropped by injected loss
  // happens first.  Contract: the dropped send never consults the latency
  // model, so the surviving message's delivery time is unchanged.
  sim::Engine e2;
  net::Network n2{e2};
  Recorder r2a, r2b;
  const net::NodeId a2 = n2.attach(&r2a);
  const net::NodeId b2 = n2.attach(&r2b);
  n2.set_latency_model(
      std::make_unique<net::JitterLatency>(kBase, kJitter, sim::Rng(42)));
  n2.set_drop_probability(1.0);
  n2.send(a2, b2, 1, {});  // consumed by random loss at send time
  n2.set_drop_probability(0.0);
  n2.send(a2, b2, 2, {});
  e2.run();
  EXPECT_EQ(n2.stats().dropped_random, 1u);
  ASSERT_EQ(r2b.messages.size(), 1u);
  EXPECT_EQ(e2.now(), t_ref);

  // A crashed-source send is also dropped before the latency consult.
  sim::Engine e3;
  net::Network n3{e3};
  Recorder r3a, r3b;
  const net::NodeId a3 = n3.attach(&r3a);
  const net::NodeId b3 = n3.attach(&r3b);
  n3.set_latency_model(
      std::make_unique<net::JitterLatency>(kBase, kJitter, sim::Rng(42)));
  n3.set_node_up(a3, false);
  n3.send(a3, b3, 1, {});
  n3.set_node_up(a3, true);
  n3.send(a3, b3, 2, {});
  e3.run();
  ASSERT_EQ(r3b.messages.size(), 1u);
  EXPECT_EQ(e3.now(), t_ref);
}

TEST(NetworkDeterminism, PartitionDropConsumesLatencyDraw) {
  // The flip side of the contract: a message dropped at DELIVERY time (the
  // partition swallows it in flight) has already taken its latency draw,
  // so the next message rides the SECOND draw of the stream.
  constexpr sim::Time kBase = 10 * sim::kMillisecond;
  constexpr sim::Time kJitter = 5 * sim::kMillisecond;
  sim::Rng ref(42);
  const sim::Time draw1 = kBase + ref.uniform_time(0, kJitter);
  const sim::Time draw2 = kBase + ref.uniform_time(0, kJitter);
  ASSERT_NE(draw1, draw2);  // seed chosen so the draws differ

  struct TimeStamper : net::Node {
    sim::Engine* eng = nullptr;
    std::vector<sim::Time> at;
    void handle_message(const net::Message&) override {
      at.push_back(eng->now());
    }
  };
  sim::Engine e;
  net::Network n{e};
  TimeStamper src, dst;
  src.eng = &e;
  dst.eng = &e;
  const net::NodeId a = n.attach(&src);
  const net::NodeId b = n.attach(&dst);
  n.set_latency_model(
      std::make_unique<net::JitterLatency>(kBase, kJitter, sim::Rng(42)));
  n.set_partitioned(a, b, true);
  n.send(a, b, 1, {});  // consumes draw1...
  e.run();              // ...and is swallowed in flight by the partition
  EXPECT_EQ(n.stats().dropped_partition, 1u);
  n.set_partitioned(a, b, false);
  const sim::Time t_send2 = e.now();
  n.send(a, b, 2, {});  // rides draw2, not a replay of draw1
  e.run();
  EXPECT_EQ(dst.at, (std::vector<sim::Time>{t_send2 + draw2}));
}

TEST_F(NetFixture, DetachedAddressIsNeverReissued) {
  Recorder c, d;
  const net::NodeId nc = network.attach(&c);
  network.set_node_extra_delay(nc, 7 * sim::kMillisecond);
  network.detach(nc);
  EXPECT_EQ(network.node_count(), 2u);
  const net::NodeId nd = network.attach(&d);
  EXPECT_NE(nd, nc);
  network.send(na, nc, 1, {});
  engine.run();
  EXPECT_TRUE(c.messages.empty());
  EXPECT_TRUE(d.messages.empty());
  EXPECT_EQ(network.stats().dropped_down, 1u);
  // Fault-injection state is kept per address, attached or not.
  EXPECT_EQ(network.node_extra_delay(nc), 7 * sim::kMillisecond);
  EXPECT_EQ(network.node_extra_delay(nd), 0);
}

// Addresses live in fixed-size pages.  A page whose addresses have all
// been issued and detached is freed; its addresses still answer as
// detached ones, and ids go on in sequence.
TEST_F(NetFixture, FreedPageAnswersLikeDetachedAddresses) {
  constexpr net::NodeId kPage = net::Network::kSlotsPerPage;
  Recorder sink;
  // na and nb open page 0; fill it and page 1.
  for (net::NodeId id = nb + 1; id <= 2 * kPage; ++id) {
    ASSERT_EQ(network.attach(&sink), id);
  }
  const net::NodeId victim = kPage + 5;  // in page 1
  network.set_node_extra_delay(victim, 7 * sim::kMillisecond);
  network.set_node_up(victim, false);
  network.set_node_up(victim, true);
  ASSERT_EQ(network.crash_count(victim), 1u);
  ASSERT_TRUE(network.send(na, victim, 1, {}).is_ok());  // in flight
  for (net::NodeId id = kPage + 1; id <= 2 * kPage; ++id) network.detach(id);
  EXPECT_EQ(network.node_count(), kPage);
  engine.run();
  EXPECT_TRUE(sink.messages.empty());
  EXPECT_EQ(network.stats().dropped_down, 1u);
  network.send(na, victim, 2, {});
  engine.run();
  EXPECT_TRUE(sink.messages.empty());
  EXPECT_EQ(network.stats().dropped_down, 2u);
  EXPECT_EQ(network.send(victim, na, 3, {}).code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_FALSE(network.is_up(victim));
  EXPECT_EQ(network.crash_count(victim), 0u);
  network.set_node_up(victim, false);
  EXPECT_EQ(sink.crashes, 1);  // only the crash before the detach
  EXPECT_EQ(network.node_extra_delay(victim), 7 * sim::kMillisecond);
  // The next address opens page 2.  Detaching it leaves the page attach is
  // still filling in place, and the one after it is delivered to.
  const net::NodeId next = network.attach(&sink);
  EXPECT_EQ(next, 2 * kPage + 1);
  network.detach(next);
  EXPECT_FALSE(network.is_up(next));
  const net::NodeId after = network.attach(&sink);
  EXPECT_EQ(after, next + 1);
  network.send(na, after, 4, {});
  engine.run();
  ASSERT_EQ(sink.messages.size(), 1u);
  EXPECT_EQ(sink.messages[0].kind, 4u);
}

TEST_F(NetFixture, DetachingAFullPageFreesIt) {
  constexpr net::NodeId kPage = net::Network::kSlotsPerPage;
  Recorder sink;
  for (net::NodeId id = nb + 1; id <= 2 * kPage; ++id) network.attach(&sink);
  const sim::AllocGuard guard;
  for (net::NodeId id = kPage + 1; id <= 2 * kPage; ++id) network.detach(id);
  const std::int64_t live_bytes = guard.live_bytes();
  const std::uint64_t allocations = guard.allocations();
  // Page 1 held kPage 16-byte slots.
  EXPECT_LE(live_bytes, -static_cast<std::int64_t>(kPage * 16));
  EXPECT_EQ(allocations, 0u);
}

TEST_F(NetFixture, SlowNodeDelaysBothDirections) {
  network.set_latency_model(
      std::make_unique<net::FixedLatency>(5 * sim::kMillisecond));
  network.set_node_extra_delay(nb, 20 * sim::kMillisecond);
  network.send(na, nb, 1, {});
  engine.run();
  EXPECT_EQ(engine.now(), 25 * sim::kMillisecond);
  network.send(nb, na, 2, {});
  engine.run();
  EXPECT_EQ(engine.now(), 50 * sim::kMillisecond);
  network.set_node_extra_delay(nb, 0);
  network.send(na, nb, 3, {});
  engine.run();
  EXPECT_EQ(engine.now(), 55 * sim::kMillisecond);
}

TEST_F(NetFixture, RestoreWithInFlightMessages) {
  // Messages in flight toward a crashed node are dropped even if the node
  // is restored before their delivery time: the crash cut the wire.
  network.set_latency_model(
      std::make_unique<net::FixedLatency>(10 * sim::kMillisecond));
  network.send(na, nb, 1, {});
  app::FailureInjector inject(network);
  inject.crash_at(nb, 2 * sim::kMillisecond);
  inject.restore_at(nb, 5 * sim::kMillisecond);
  // A message sent after the restore is delivered normally.
  engine.schedule_at(6 * sim::kMillisecond,
                     [&] { network.send(na, nb, 2, {}); });
  engine.run();
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].kind, 2u);
  EXPECT_EQ(b.crashes, 1);
}

// ---- failure injection windows ---------------------------------------------

TEST_F(NetFixture, LossyWindowsOverlapTakeMax) {
  app::FailureInjector inject(network);
  inject.lossy_window(0.2, 10, 40);
  inject.lossy_window(0.5, 20, 30);  // nested, higher loss
  std::vector<double> probes;
  for (sim::Time t : {5, 15, 25, 35, 45}) {
    engine.schedule_at(t, [&] { probes.push_back(network.drop_probability()); });
  }
  engine.run();
  EXPECT_EQ(probes,
            (std::vector<double>{0.0, 0.2, 0.5, 0.2, 0.0}));
}

TEST_F(NetFixture, LossyWindowEndDoesNotCancelStillOpenWindow) {
  app::FailureInjector inject(network);
  inject.lossy_window(0.3, 10, 50);
  inject.lossy_window(0.3, 20, 30);  // same probability, shorter
  std::vector<double> probes;
  for (sim::Time t : {25, 35, 55}) {
    engine.schedule_at(t, [&] { probes.push_back(network.drop_probability()); });
  }
  engine.run();
  // At 35 the inner window has closed but the outer one still applies.
  EXPECT_EQ(probes, (std::vector<double>{0.3, 0.3, 0.0}));
}

TEST_F(NetFixture, LinkFlappingAlternatesAndHealsAtEnd) {
  app::FailureInjector inject(network);
  inject.flap_link(na, nb, 10, 50, 10);  // down [10,20) up [20,30) ...
  std::vector<bool> partitioned;
  for (sim::Time t : {5, 15, 25, 35, 45, 55}) {
    engine.schedule_at(
        t, [&] { partitioned.push_back(network.is_partitioned(na, nb)); });
  }
  engine.run();
  EXPECT_EQ(partitioned,
            (std::vector<bool>{false, true, false, true, false, false}));
}

TEST(LatencyModels, JitterStaysInBand) {
  net::JitterLatency j(10 * sim::kMillisecond, 5 * sim::kMillisecond,
                       sim::Rng(1));
  for (int i = 0; i < 100; ++i) {
    const sim::Time t = j.latency(1, 2, 0);
    EXPECT_GE(t, 10 * sim::kMillisecond);
    EXPECT_LE(t, 15 * sim::kMillisecond);
  }
}

// ---- rpc ------------------------------------------------------------------------

struct RpcFixture : ::testing::Test {
  sim::Engine engine;
  net::Network network{engine};
  net::Endpoint client{network, "client"};
  net::Endpoint server{network, "server"};
};

TEST_F(RpcFixture, CallAndRespond) {
  server.register_method(
      42, [&](net::NodeId caller, std::uint64_t id, util::Reader& args) {
        const auto x = args.u32();
        util::Writer w;
        w.u32(x * 2);
        server.respond(caller, id, w.take());
      });
  std::uint32_t got = 0;
  util::Writer w;
  w.u32(21);
  client.call(server.id(), 42, w.take(), 0,
              [&](const util::Status& status, util::Reader& reply) {
                ASSERT_TRUE(status.is_ok());
                got = reply.u32();
              });
  engine.run();
  EXPECT_EQ(got, 42u);
}

TEST_F(RpcFixture, ErrorResponsePropagates) {
  server.register_method(
      1, [&](net::NodeId caller, std::uint64_t id, util::Reader&) {
        server.respond_error(caller, id, util::ErrorCode::kPermissionDenied,
                             "nope");
      });
  util::Status got;
  client.call(server.id(), 1, {}, 0,
              [&](const util::Status& status, util::Reader&) { got = status; });
  engine.run();
  EXPECT_EQ(got.code(), util::ErrorCode::kPermissionDenied);
  EXPECT_EQ(got.message(), "nope");
}

TEST_F(RpcFixture, UnknownMethodReturnsNotFound) {
  util::Status got;
  client.call(server.id(), 777, {}, 0,
              [&](const util::Status& status, util::Reader&) { got = status; });
  engine.run();
  EXPECT_EQ(got.code(), util::ErrorCode::kNotFound);
}

TEST_F(RpcFixture, TimeoutFiresWhenServerSilent) {
  server.register_method(1, [](net::NodeId, std::uint64_t, util::Reader&) {
    // never responds
  });
  util::Status got;
  client.call(server.id(), 1, {}, sim::kSecond,
              [&](const util::Status& status, util::Reader&) { got = status; });
  engine.run();
  EXPECT_EQ(got.code(), util::ErrorCode::kTimeout);
  EXPECT_EQ(engine.now(), sim::kSecond);
  EXPECT_EQ(client.pending_calls(), 0u);
}

TEST_F(RpcFixture, TimeoutFiresWhenServerCrashed) {
  network.set_node_up(server.id(), false);
  util::Status got;
  client.call(server.id(), 1, {}, sim::kSecond,
              [&](const util::Status& status, util::Reader&) { got = status; });
  engine.run();
  EXPECT_EQ(got.code(), util::ErrorCode::kTimeout);
}

TEST_F(RpcFixture, LateResponseAfterTimeoutIsIgnored) {
  server.register_method(
      1, [&](net::NodeId caller, std::uint64_t id, util::Reader&) {
        engine.schedule_after(2 * sim::kSecond,
                              [&, caller, id] { server.respond(caller, id, {}); });
      });
  int calls = 0;
  client.call(server.id(), 1, {}, sim::kSecond,
              [&](const util::Status&, util::Reader&) { ++calls; });
  engine.run();
  EXPECT_EQ(calls, 1);  // only the timeout fires
}

TEST_F(RpcFixture, NotifyDispatchesByKind) {
  int hits = 0;
  server.register_notify(9, [&](net::NodeId src, util::Reader& payload) {
    EXPECT_EQ(src, client.id());
    EXPECT_EQ(payload.u32(), 123u);
    ++hits;
  });
  util::Writer w;
  w.u32(123);
  client.notify(server.id(), 9, w.take());
  client.notify(server.id(), 10, {});  // unregistered kind: dropped
  engine.run();
  EXPECT_EQ(hits, 1);
}

// Re-registering a kind replaces its handler.
TEST_F(RpcFixture, ReRegisteringAKindReplacesItsHandler) {
  int first = 0;
  int second = 0;
  server.register_notify(9, [&](net::NodeId, util::Reader&) { ++first; });
  server.register_notify(9, [&](net::NodeId, util::Reader&) { ++second; });
  client.notify(server.id(), 9, {});
  engine.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

// A handler may register further kinds, as gridmpi does from inside the
// barrier release; the table then moves under the running handler, so it
// reads its captures before registering.
TEST_F(RpcFixture, HandlerMayRegisterMoreKinds) {
  int hits = 0;
  server.register_notify(1, [this, &hits](net::NodeId, util::Reader&) {
    net::Endpoint& ep = server;
    int& count = hits;
    for (std::uint32_t kind = 2; kind <= 8; ++kind) {
      ep.register_notify(kind,
                         [&count](net::NodeId, util::Reader&) { ++count; });
    }
  });
  client.notify(server.id(), 1, {});
  engine.run();
  for (std::uint32_t kind = 1; kind <= 8; ++kind) {
    client.notify(server.id(), kind, {});
  }
  engine.run();
  EXPECT_EQ(hits, 7);
}

TEST_F(RpcFixture, CrashDropsPendingCallsSilently) {
  server.register_method(1, [](net::NodeId, std::uint64_t, util::Reader&) {});
  int calls = 0;
  client.call(server.id(), 1, {}, 10 * sim::kSecond,
              [&](const util::Status&, util::Reader&) { ++calls; });
  bool hook = false;
  client.crash_hook = [&] { hook = true; };
  network.set_node_up(client.id(), false);
  engine.run();
  EXPECT_EQ(calls, 0);  // a dead client gets no callbacks
  EXPECT_TRUE(hook);
  EXPECT_EQ(client.pending_calls(), 0u);
}

TEST_F(RpcFixture, EndpointRestoredByInjectorAnswersAgain) {
  // The network is the one record of a crash: a server it restores (here
  // through the failure injector, which only marks the node up) answers a
  // call made after the restore.
  server.register_method(
      1, [&](net::NodeId caller, std::uint64_t id, util::Reader&) {
        server.respond(caller, id, {});
      });
  app::FailureInjector inject(network);
  inject.crash_at(server.id(), sim::kSecond);
  inject.restore_at(server.id(), 2 * sim::kSecond);
  util::Status got(util::ErrorCode::kInternal, "unset");
  sim::Time answered_at = -1;
  engine.schedule_at(3 * sim::kSecond, [&] {
    client.call(server.id(), 1, {}, sim::kSecond,
                [&](const util::Status& status, util::Reader&) {
                  got = status;
                  answered_at = engine.now();
                });
  });
  engine.run();
  EXPECT_TRUE(got.is_ok()) << got.to_string();
  EXPECT_EQ(answered_at, 3 * sim::kSecond + 4 * sim::kMillisecond);
  EXPECT_EQ(server.crash_count(), 1u);
  EXPECT_EQ(network.crash_count(server.id()), 1u);
}

TEST_F(RpcFixture, EndpointDestructionCancelsOutstandingCalls) {
  // Regression: destroying an endpoint with calls in flight used to leave
  // their timeout events scheduled against the dead object.
  server.register_method(1, [](net::NodeId, std::uint64_t, util::Reader&) {
    // never responds: both the response path and the timeout are pending
  });
  auto doomed = std::make_unique<net::Endpoint>(network, "doomed");
  int callbacks = 0;
  doomed->call(server.id(), 1, {}, sim::kSecond,
               [&](const util::Status&, util::Reader&) { ++callbacks; });
  doomed->call(server.id(), 1, {}, 2 * sim::kSecond,
               [&](const util::Status&, util::Reader&) { ++callbacks; });
  EXPECT_EQ(doomed->pending_calls(), 2u);
  doomed.reset();
  engine.run();  // timeout events must not fire into freed memory
  EXPECT_EQ(callbacks, 0);
}

TEST_F(RpcFixture, ConcurrentCallsMatchResponses) {
  server.register_method(
      5, [&](net::NodeId caller, std::uint64_t id, util::Reader& args) {
        const auto v = args.u32();
        util::Writer w;
        w.u32(v);
        // Respond out of order: delay even values.
        const sim::Time delay =
            (v % 2 == 0) ? 100 * sim::kMillisecond : sim::kMillisecond;
        engine.schedule_after(delay,
                              [&, caller, id, bytes = w.take()]() mutable {
                                server.respond(caller, id, std::move(bytes));
                              });
      });
  std::vector<std::uint32_t> got;
  for (std::uint32_t i = 0; i < 6; ++i) {
    util::Writer w;
    w.u32(i);
    client.call(server.id(), 5, w.take(), 0,
                [&](const util::Status& status, util::Reader& reply) {
                  ASSERT_TRUE(status.is_ok());
                  got.push_back(reply.u32());
                });
  }
  engine.run();
  ASSERT_EQ(got.size(), 6u);
  // Odd values return first, but each response matched its own call.
  EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 3, 5, 0, 2, 4}));
}

TEST_F(RpcFixture, NotifyFrameFanOutSharesOneBuffer) {
  // One encode, N destinations: every send shares the same pooled buffer.
  net::Endpoint r1{network, "r1"}, r2{network, "r2"}, r3{network, "r3"};
  int hits = 0;
  for (net::Endpoint* e : {&r1, &r2, &r3}) {
    e->register_notify(4, [&](net::NodeId, util::Reader& p) {
      EXPECT_EQ(p.str(), "broadcast");
      ++hits;
    });
  }
  util::Writer w;
  w.str("broadcast");
  const sim::Payload frame = net::Endpoint::encode_notify(4, w.take());
  EXPECT_EQ(frame.ref_count(), 1u);
  for (net::Endpoint* e : {&r1, &r2, &r3}) {
    client.notify_frame(e->id(), frame.share());
  }
  // Our handle plus one per in-flight message.
  EXPECT_EQ(frame.ref_count(), 4u);
  engine.run();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(frame.ref_count(), 1u);  // deliveries released their shares
}

TEST_F(RpcFixture, CallTableSurvivesChurnAndReusesSlots) {
  // Sequentially chained calls churn the slab's single slot; interleaved
  // batches grow it.  Either way every response matches its own call and
  // the table drains to empty.
  server.register_method(
      7, [&](net::NodeId caller, std::uint64_t id, util::Reader& args) {
        const auto v = args.u64();
        util::Writer w;
        w.u64(v + 1);
        server.respond(caller, id, w.take());
      });
  std::uint64_t received = 0;
  std::function<void(std::uint64_t)> chain = [&](std::uint64_t v) {
    if (v >= 200) return;
    util::Writer w;
    w.u64(v);
    client.call(server.id(), 7, w.take(), sim::kSecond,
                [&](const util::Status& status, util::Reader& reply) {
                  ASSERT_TRUE(status.is_ok());
                  received = reply.u64();
                  chain(received);
                });
  };
  chain(0);
  // An interleaved burst on top of the chain.
  for (std::uint64_t i = 1000; i < 1032; ++i) {
    util::Writer w;
    w.u64(i);
    client.call(server.id(), 7, w.take(), sim::kSecond,
                [](const util::Status& status, util::Reader&) {
                  ASSERT_TRUE(status.is_ok());
                });
  }
  engine.run();
  EXPECT_EQ(received, 200u);
  EXPECT_EQ(client.pending_calls(), 0u);
}

TEST_F(RpcFixture, LargeResponseCaptureStillFires) {
  // Captures beyond ResponseFn's inline capacity must box, not break.
  server.register_method(
      1, [&](net::NodeId caller, std::uint64_t id, util::Reader&) {
        server.respond(caller, id, {});
      });
  std::array<std::uint64_t, 16> big{};
  big.fill(7);
  bool fired = false;
  client.call(server.id(), 1, {}, 0,
              [&fired, big](const util::Status& status, util::Reader&) {
                EXPECT_TRUE(status.is_ok());
                EXPECT_EQ(big[15], 7u);
                fired = true;
              });
  engine.run();
  EXPECT_TRUE(fired);
}


// ---- endpoint teardown ----------------------------------------------------------

// Destroying an endpoint with calls still in flight must drain its call
// table, kill every timer that captures the endpoint, and never fire the
// response callbacks.  The teardown audit reports exactly what it found.
TEST_F(RpcFixture, TeardownMidFlightDrainsTableAndSilencesCallbacks) {
  int fired = 0;
  {
    net::Endpoint doomed{network, "doomed"};
    // Two calls with timeouts (the server never answers: method 9 is
    // registered but deliberately silent).
    server.register_method(9, [](net::NodeId, std::uint64_t, util::Reader&) {});
    util::Writer w;
    w.u32(1);
    doomed.call(server.id(), 9, w.take(), 5 * sim::kSecond,
                [&](const util::Status&, util::Reader&) { ++fired; });
    doomed.call(server.id(), 9, {}, 3 * sim::kSecond,
                [&](const util::Status&, util::Reader&) { ++fired; });
    EXPECT_EQ(doomed.pending_calls(), 2u);
    // Destroyed here, with everything outstanding.
  }
  const auto& report = net::Endpoint::last_teardown_report();
  EXPECT_EQ(report.pending_calls, 2u);
  EXPECT_EQ(report.timers_cancelled, 2u);  // both call-timeout timers
  EXPECT_EQ(report.leaked_slots, 0u);
  // Draining the rest of the simulation (request frames arriving at the
  // server, responses sent back to a detached node) must fire nothing.
  engine.run();
  EXPECT_EQ(fired, 0);
}

TEST_F(RpcFixture, TeardownCountsOnlyLiveTimers) {
  int fired = 0;
  {
    net::Endpoint doomed{network, "doomed"};
    server.register_method(9, [](net::NodeId, std::uint64_t, util::Reader&) {});
    // One call without a timeout (no timer to kill) and one that has
    // already timed out (its slot and timer are gone).
    doomed.call(server.id(), 9, {}, 0,
                [&](const util::Status&, util::Reader&) { ++fired; });
    doomed.call(server.id(), 9, {}, sim::kSecond,
                [&](const util::Status&, util::Reader&) { ++fired; });
    engine.run_until(1100 * sim::kMillisecond);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(doomed.pending_calls(), 1u);
  }
  const auto& report = net::Endpoint::last_teardown_report();
  EXPECT_EQ(report.pending_calls, 1u);
  EXPECT_EQ(report.timers_cancelled, 0u);
  EXPECT_EQ(report.leaked_slots, 0u);
  engine.run();
  EXPECT_EQ(fired, 1);
}

// ---- allocation shape -----------------------------------------------------------

// The zero-allocation steady-state claim, asserted in-tree (bench/micro_net
// makes the same check at benchmark scale).  After warmup, a request/
// response round-trip must not touch the heap: payloads come from the
// pool, call slots from slabs, and callbacks stay inline.
TEST_F(RpcFixture, SteadyStateRoundTripAllocatesNothing) {
  server.register_method(
      7, [&](net::NodeId caller, std::uint64_t id, util::Reader& args) {
        const auto x = args.u32();
        util::Writer w;
        w.reserve(4);
        w.u32(x + 1);
        server.respond(caller, id, w.take());
      });
  std::uint32_t sink = 0;
  auto roundtrip = [&] {
    util::Writer w;
    w.reserve(4);
    w.u32(5);
    client.call(server.id(), 7, w.take(), 0,
                [&sink](const util::Status&, util::Reader& reply) {
                  sink += reply.u32();
                });
    engine.run();
  };
  for (int i = 0; i < 64; ++i) roundtrip();  // pools and slabs reach capacity
  sink = 0;
  sim::AllocGuard guard;
  for (int i = 0; i < 256; ++i) roundtrip();
  EXPECT_EQ(guard.allocations(), 0u);
  EXPECT_EQ(sink, 256u * 6u);
}

}  // namespace
}  // namespace grid
