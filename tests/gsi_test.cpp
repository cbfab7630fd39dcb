// Unit tests for the GSI security substrate: credentials, CA, gridmap,
// and the mutual authentication handshake with its calibrated costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gsi/credential.hpp"
#include "gsi/protocol.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "simkit/allocguard.hpp"

namespace grid::gsi {
namespace {

TEST(Credential, IssueAndVerify) {
  CertificateAuthority ca("/CN=CA", 1234);
  const Credential c = ca.issue("/CN=alice", 100 * sim::kSecond);
  EXPECT_TRUE(ca.verify(c, 0).is_ok());
  EXPECT_TRUE(ca.verify(c, 100 * sim::kSecond).is_ok());
}

TEST(Credential, ExpiryRejected) {
  CertificateAuthority ca("/CN=CA", 1234);
  const Credential c = ca.issue("/CN=alice", 100);
  EXPECT_FALSE(ca.verify(c, 101).is_ok());
}

TEST(Credential, WrongIssuerRejected) {
  CertificateAuthority ca("/CN=CA", 1234);
  CertificateAuthority other("/CN=Other", 1234);
  const Credential c = other.issue("/CN=alice", 100);
  EXPECT_EQ(ca.verify(c, 0).code(), util::ErrorCode::kPermissionDenied);
}

TEST(Credential, TamperedSubjectRejected) {
  CertificateAuthority ca("/CN=CA", 1234);
  Credential c = ca.issue("/CN=alice", 100);
  c.subject = "/CN=mallory";
  EXPECT_FALSE(ca.verify(c, 0).is_ok());
}

TEST(Credential, TamperedExpiryRejected) {
  CertificateAuthority ca("/CN=CA", 1234);
  Credential c = ca.issue("/CN=alice", 100);
  c.not_after = 1000000;
  EXPECT_FALSE(ca.verify(c, 0).is_ok());
}

TEST(Credential, DifferentCaSecretsProduceDifferentSignatures) {
  CertificateAuthority a("/CN=CA", 1);
  CertificateAuthority b("/CN=CA", 2);
  EXPECT_NE(a.issue("/CN=x", 10).signature, b.issue("/CN=x", 10).signature);
  EXPECT_FALSE(a.verify(b.issue("/CN=x", 10), 0).is_ok());
}

TEST(Credential, CodecRoundTrip) {
  CertificateAuthority ca("/CN=CA", 99);
  const Credential c = ca.issue("/CN=bob", 42);
  util::Writer w;
  c.encode(w);
  util::Reader r(w.bytes());
  EXPECT_EQ(Credential::decode(r), c);
  EXPECT_TRUE(r.done());
}

TEST(GridMap, Lookup) {
  GridMap gm;
  gm.add("/CN=alice", "alice");
  auto hit = gm.lookup("/CN=alice");
  ASSERT_TRUE(hit.is_ok());
  EXPECT_EQ(hit.value(), "alice");
  EXPECT_FALSE(gm.lookup("/CN=bob").is_ok());
}

// Every GSI handshake looks its peer up twice; a hit copies no key.
TEST(GridMap, LookupAllocatesNothingForTheKey) {
  GridMap gm;
  const std::string subject = "/O=Grid/OU=Simulated/CN=Forty-char users";
  ASSERT_EQ(subject.size(), 40u);
  gm.add(subject, "alice");
  sim::AllocGuard guard;
  const util::Result<std::string> hit = gm.lookup(subject);
  EXPECT_EQ(guard.allocations(), 0u);
  EXPECT_TRUE(hit.is_ok());
}

// ---- handshake -----------------------------------------------------------------

struct GsiFixture : ::testing::Test {
  sim::Engine engine;
  net::Network network{engine};
  CertificateAuthority ca{"/CN=CA", 777};
  GridMap gridmap;
  net::Endpoint server_ep{network, "server"};
  net::Endpoint client_ep{network, "client"};

  GsiFixture() {
    network.set_latency_model(
        std::make_unique<net::FixedLatency>(2 * sim::kMillisecond));
    gridmap.add("/CN=alice", "alice");
  }

  ServerContext make_server(CostModel costs = {}) {
    return ServerContext(server_ep, ca, gridmap,
                         ca.issue("/CN=server", sim::kTimeNever / 2), costs);
  }
};

TEST_F(GsiFixture, SuccessfulMutualAuth) {
  ServerContext server = make_server();
  ClientContext client(client_ep, ca,
                       ca.issue("/CN=alice", sim::kTimeNever / 2));
  util::Result<Session> got{util::Status(util::ErrorCode::kInternal, "unset")};
  client.authenticate(server_ep.id(), 10 * sim::kSecond,
                      [&](util::Result<Session> session) {
                        got = std::move(session);
                      });
  engine.run();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value().local_user, "alice");
  EXPECT_GT(got.value().token, 0u);
  EXPECT_EQ(server.session_count(), 1u);
  // Session validates server-side.
  auto validated = server.validate(got.value().token);
  ASSERT_TRUE(validated.is_ok());
  EXPECT_EQ(validated.value().local_user, "alice");
}

// The gatekeeper validates a session on every job request.  A held session
// keeps no subject, so validating one copies only the local account, which
// fits the small-string buffer, however long the subject.
TEST_F(GsiFixture, ValidateAllocatesNothing) {
  const std::string subject = "/O=Grid/OU=Simulated/CN=Forty-char users";
  ASSERT_EQ(subject.size(), 40u);
  gridmap.add(subject, "user-agent1");
  ServerContext server = make_server();
  ClientContext client(client_ep, ca, ca.issue(subject, sim::kTimeNever / 2));
  std::uint64_t token = 0;
  client.authenticate(server_ep.id(), 10 * sim::kSecond,
                      [&](util::Result<Session> s) {
                        ASSERT_TRUE(s.is_ok());
                        token = s.value().token;
                      });
  engine.run();
  ASSERT_GT(token, 0u);
  sim::AllocGuard guard;
  const util::Result<Session> session = server.validate(token);
  EXPECT_EQ(guard.allocations(), 0u);
  ASSERT_TRUE(session.is_ok());
  EXPECT_EQ(session.value().local_user, "user-agent1");
}

TEST_F(GsiFixture, HandshakeCostMatchesFigure3) {
  // Default cost model: ~0.47 s CPU + 4 one-way 2 ms hops ~= 0.48 s; the
  // paper attributes ~0.5 s of a GRAM request to authentication.
  ServerContext server = make_server();
  ClientContext client(client_ep, ca,
                       ca.issue("/CN=alice", sim::kTimeNever / 2));
  sim::Time done_at = -1;
  client.authenticate(server_ep.id(), 10 * sim::kSecond,
                      [&](util::Result<Session>) { done_at = engine.now(); });
  engine.run();
  EXPECT_NEAR(sim::to_seconds(done_at), 0.5, 0.05);
}

TEST_F(GsiFixture, UnmappedSubjectDenied) {
  ServerContext server = make_server();
  ClientContext client(client_ep, ca,
                       ca.issue("/CN=stranger", sim::kTimeNever / 2));
  util::Result<Session> got{util::Status(util::ErrorCode::kInternal, "unset")};
  bool called = false;
  client.authenticate(server_ep.id(), 10 * sim::kSecond,
                      [&](util::Result<Session> session) {
                        called = true;
                        got = std::move(session);
                      });
  engine.run();
  ASSERT_TRUE(called);
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), util::ErrorCode::kPermissionDenied);
  EXPECT_EQ(server.session_count(), 0u);
}

TEST_F(GsiFixture, ForgedCredentialDenied) {
  ServerContext server = make_server();
  Credential forged;
  forged.subject = "/CN=alice";
  forged.issuer = "/CN=CA";
  forged.not_after = sim::kTimeNever / 2;
  forged.signature = 0xbadbadbad;
  ClientContext client(client_ep, ca, forged);
  util::Result<Session> got{util::Status(util::ErrorCode::kInternal, "unset")};
  client.authenticate(server_ep.id(), 10 * sim::kSecond,
                      [&](util::Result<Session> s) { got = std::move(s); });
  engine.run();
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), util::ErrorCode::kPermissionDenied);
}

TEST_F(GsiFixture, ClientRejectsForgedServer) {
  // Server presents a credential from a different CA.
  CertificateAuthority rogue("/CN=Rogue", 1);
  ServerContext server(server_ep, ca, gridmap,
                       rogue.issue("/CN=server", sim::kTimeNever / 2));
  ClientContext client(client_ep, ca,
                       ca.issue("/CN=alice", sim::kTimeNever / 2));
  util::Result<Session> got{util::Status(util::ErrorCode::kInternal, "unset")};
  client.authenticate(server_ep.id(), 10 * sim::kSecond,
                      [&](util::Result<Session> s) { got = std::move(s); });
  engine.run();
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), util::ErrorCode::kPermissionDenied);
}

TEST_F(GsiFixture, CrashedServerTimesOut) {
  ServerContext server = make_server();
  network.set_node_up(server_ep.id(), false);
  ClientContext client(client_ep, ca,
                       ca.issue("/CN=alice", sim::kTimeNever / 2));
  util::Result<Session> got{util::Status(util::ErrorCode::kInternal, "unset")};
  client.authenticate(server_ep.id(), sim::kSecond,
                      [&](util::Result<Session> s) { got = std::move(s); });
  engine.run();
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), util::ErrorCode::kTimeout);
}

TEST_F(GsiFixture, UnknownTokenRejected) {
  ServerContext server = make_server();
  EXPECT_FALSE(server.validate(424242).is_ok());
}

TEST_F(GsiFixture, ConcurrentHandshakesGetDistinctTokens) {
  ServerContext server = make_server();
  gridmap.add("/CN=bob", "bob");
  ClientContext alice(client_ep, ca,
                      ca.issue("/CN=alice", sim::kTimeNever / 2));
  net::Endpoint bob_ep(network, "bob");
  ClientContext bob(bob_ep, ca, ca.issue("/CN=bob", sim::kTimeNever / 2));
  std::vector<std::uint64_t> tokens;
  auto collect = [&](util::Result<Session> s) {
    ASSERT_TRUE(s.is_ok());
    tokens.push_back(s.value().token);
  };
  alice.authenticate(server_ep.id(), 10 * sim::kSecond, collect);
  bob.authenticate(server_ep.id(), 10 * sim::kSecond, collect);
  engine.run();
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_NE(tokens[0], tokens[1]);
  EXPECT_EQ(server.session_count(), 2u);
}

TEST_F(GsiFixture, SessionsExpireAfterAnHour) {
  ServerContext server = make_server();
  ClientContext client(client_ep, ca,
                       ca.issue("/CN=alice", sim::kTimeNever / 2));
  std::uint64_t token = 0;
  client.authenticate(server_ep.id(), 10 * sim::kSecond,
                      [&](util::Result<Session> s) {
                        ASSERT_TRUE(s.is_ok());
                        token = s.value().token;
                      });
  engine.run();
  ASSERT_GT(token, 0u);
  EXPECT_TRUE(server.validate(token).is_ok());
  // Advance past the session lifetime: the token no longer authorizes.
  engine.schedule_at(2 * sim::kHour, [] {});
  engine.run();
  auto validated = server.validate(token);
  EXPECT_FALSE(validated.is_ok());
  EXPECT_EQ(validated.status().code(), util::ErrorCode::kPermissionDenied);
}

TEST_F(GsiFixture, DroppedSessionStillAnswersExpired) {
  ServerContext server = make_server();
  ClientContext client(client_ep, ca,
                       ca.issue("/CN=alice", sim::kTimeNever / 2));
  std::vector<std::uint64_t> tokens;
  auto handshake = [&] {
    client.authenticate(server_ep.id(), 10 * sim::kSecond,
                        [&](util::Result<Session> s) {
                          ASSERT_TRUE(s.is_ok());
                          tokens.push_back(s.value().token);
                        });
  };
  handshake();
  // A handshake past the first session's expiry drops that session.
  engine.schedule_at(2 * sim::kHour, handshake);
  engine.run();
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(server.session_count(), 1u);
  auto dropped = server.validate(tokens[0]);
  EXPECT_EQ(dropped.status().code(), util::ErrorCode::kPermissionDenied);
  EXPECT_EQ(dropped.status().message(), "session expired");
  EXPECT_TRUE(server.validate(tokens[1]).is_ok());
  for (const std::uint64_t never : {std::uint64_t{0}, tokens[1] + 1}) {
    auto unknown = server.validate(never);
    EXPECT_EQ(unknown.status().code(), util::ErrorCode::kPermissionDenied);
    EXPECT_EQ(unknown.status().message(), "unknown session token");
  }
}

TEST_F(GsiFixture, SessionCountStaysBoundedPastExpiry) {
  // One handshake every 10 minutes for 5 hours: the server keeps only the
  // sessions issued within the last hour (7: t-60 .. t minutes).
  ServerContext server = make_server();
  ClientContext client(client_ep, ca,
                       ca.issue("/CN=alice", sim::kTimeNever / 2));
  std::size_t peak = 0;
  for (int i = 0; i <= 30; ++i) {
    engine.schedule_at(i * 10 * sim::kMinute, [&] {
      client.authenticate(server_ep.id(), 10 * sim::kSecond,
                          [&](util::Result<Session> s) {
                            ASSERT_TRUE(s.is_ok());
                            peak = std::max(peak, server.session_count());
                          });
    });
  }
  engine.run();
  EXPECT_EQ(peak, 7u);
  EXPECT_EQ(server.session_count(), 7u);
}

// Expired sessions leave from the front and take their memory with them:
// the handshake after 1,000 sessions expired gives back about 48 B each.
TEST_F(GsiFixture, ExpiredSessionsFreeTheirMemory) {
  ServerContext server = make_server();
  ClientContext client(client_ep, ca,
                       ca.issue("/CN=alice", sim::kTimeNever / 2));
  int sessions = 0;
  auto handshake = [&] {
    client.authenticate(server_ep.id(), 10 * sim::kSecond,
                        [&](util::Result<Session> s) {
                          ASSERT_TRUE(s.is_ok());
                          ++sessions;
                        });
  };
  for (int i = 0; i < 1000; ++i) handshake();
  engine.run();
  ASSERT_EQ(sessions, 1000);
  ASSERT_EQ(server.session_count(), 1000u);
  sim::AllocGuard guard;
  engine.schedule_at(2 * sim::kHour, handshake);
  engine.run();
  ASSERT_EQ(sessions, 1001);
  EXPECT_EQ(server.session_count(), 1u);
  EXPECT_LE(guard.live_bytes(), -40000);
}

TEST_F(GsiFixture, PendingHandshakeCountStaysBoundedWithoutFinal) {
  // One INIT every 10 minutes for 5 hours and never a FINAL: the server
  // keeps only the handshakes begun within the last hour (7: t-60 .. t
  // minutes).  A FINAL for a dropped one is refused like an unknown id.
  ServerContext server = make_server();
  const Credential alice = ca.issue("/CN=alice", sim::kTimeNever / 2);
  struct Issued {
    std::uint64_t id = 0;
    std::uint64_t challenge = 0;
  };
  std::vector<Issued> issued;
  std::size_t peak = 0;
  for (int i = 0; i <= 30; ++i) {
    engine.schedule_at(i * 10 * sim::kMinute, [&] {
      util::Writer w;
      alice.encode(w);
      client_ep.call(server_ep.id(), kMethodInit, w.take(), 10 * sim::kSecond,
                     [&](const util::Status& s, util::Reader& reply) {
                       ASSERT_TRUE(s.is_ok());
                       Credential::decode(reply);
                       Issued hs;
                       hs.id = reply.varint();
                       hs.challenge = reply.u64();
                       ASSERT_TRUE(reply.ok());
                       issued.push_back(hs);
                       peak = std::max(peak,
                                       server.pending_handshake_count());
                     });
    });
  }
  engine.run();
  ASSERT_EQ(issued.size(), 31u);
  EXPECT_EQ(peak, 7u);
  EXPECT_EQ(server.pending_handshake_count(), 7u);
  const auto send_final = [&](const Issued& hs) {
    util::Writer w;
    w.varint(hs.id);
    w.u64(challenge_response(hs.challenge, "/CN=alice"));
    util::Status status(util::ErrorCode::kInternal, "unset");
    client_ep.call(server_ep.id(), kMethodFinal, w.take(), 10 * sim::kSecond,
                   [&](const util::Status& s, util::Reader&) { status = s; });
    engine.run();
    return status;
  };
  const util::Status dropped = send_final(issued.front());
  EXPECT_EQ(dropped.code(), util::ErrorCode::kPermissionDenied);
  EXPECT_EQ(dropped.message(), "unknown handshake");
  EXPECT_TRUE(send_final(issued.back()).is_ok());
  EXPECT_EQ(server.pending_handshake_count(), 6u);
  EXPECT_EQ(server.session_count(), 1u);
}

TEST_F(GsiFixture, ReplayedChallengeResponseRejected) {
  // A FINAL for an unknown/consumed handshake id must be denied: each
  // challenge is single-use.
  ServerContext server = make_server();
  util::Writer w;
  w.varint(4242);  // a handshake id the server never issued
  w.u64(challenge_response(1, "/CN=alice"));
  util::Status status;
  client_ep.call(server_ep.id(), kMethodFinal, w.take(), 10 * sim::kSecond,
                 [&](const util::Status& s, util::Reader&) { status = s; });
  engine.run();
  EXPECT_EQ(status.code(), util::ErrorCode::kPermissionDenied);
}

TEST(ChallengeResponse, BindsSubjectAndChallenge) {
  EXPECT_NE(challenge_response(1, "a"), challenge_response(2, "a"));
  EXPECT_NE(challenge_response(1, "a"), challenge_response(1, "b"));
  EXPECT_EQ(challenge_response(7, "x"), challenge_response(7, "x"));
}

}  // namespace
}  // namespace grid::gsi
