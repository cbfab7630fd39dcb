// Tests for the networked grid information service and the resource
// broker (src/info).
#include <gtest/gtest.h>

#include "info/broker.hpp"
#include "info/gis.hpp"
#include "sched/batch.hpp"
#include "simkit/allocguard.hpp"
#include "test_util.hpp"

namespace grid {
namespace {

TEST(GisCodec, SnapshotRoundTrip) {
  sched::QueueSnapshot snap;
  snap.taken_at = 42 * sim::kSecond;
  snap.total_processors = 64;
  snap.busy_processors = 48;
  snap.queued.push_back({7, 16, 5 * sim::kMinute, 10 * sim::kSecond});
  snap.queued.push_back({9, 32, sim::kHour, 20 * sim::kSecond});
  util::Writer w;
  info::encode_snapshot(w, snap);
  util::Reader r(w.bytes());
  const sched::QueueSnapshot back = info::decode_snapshot(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.taken_at, snap.taken_at);
  EXPECT_EQ(back.total_processors, snap.total_processors);
  EXPECT_EQ(back.busy_processors, snap.busy_processors);
  ASSERT_EQ(back.queued.size(), 2u);
  EXPECT_EQ(back.queued[1].id, 9u);
  EXPECT_EQ(back.queued[1].estimated_runtime, sim::kHour);
}

struct GisFixture : ::testing::Test {
  GisFixture() {
    engine = std::make_unique<sim::Engine>();
    network = std::make_unique<net::Network>(*engine);
    busy = std::make_unique<sched::BatchScheduler>(*engine, 64);
    idle = std::make_unique<sched::BatchScheduler>(*engine, 64);
    service = std::make_unique<sched::LoadInformationService>(
        *engine, 10 * sim::kSecond);
    service->register_resource("busy", busy.get());
    service->register_resource("idle", idle.get());
    server = std::make_unique<info::GisServer>(*network, *service);
    server->set_contacts({"busy", "idle"});
    endpoint = std::make_unique<net::Endpoint>(*network, "broker");
    client = std::make_unique<info::GisClient>(*endpoint, server->contact());
    // Load the busy machine.
    sched::JobDescriptor d;
    d.id = 1;
    d.count = 64;
    d.runtime = sim::kHour;
    d.estimated_runtime = sim::kHour;
    busy->submit(d, nullptr, nullptr);
    service->publish_now();
  }

  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<sched::BatchScheduler> busy;
  std::unique_ptr<sched::BatchScheduler> idle;
  std::unique_ptr<sched::LoadInformationService> service;
  std::unique_ptr<info::GisServer> server;
  std::unique_ptr<net::Endpoint> endpoint;
  std::unique_ptr<info::GisClient> client;
};

TEST_F(GisFixture, QueryReturnsPublishedSnapshot) {
  util::Result<sched::QueueSnapshot> got{
      util::Status(util::ErrorCode::kInternal, "unset")};
  client->query("busy", sim::kSecond,
                [&](util::Result<sched::QueueSnapshot> r) {
                  got = std::move(r);
                });
  engine->run();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value().busy_processors, 64);
  EXPECT_EQ(server->queries_served(), 1u);
}

TEST_F(GisFixture, QueryCostsNetworkAndLookupTime) {
  sim::Time done_at = -1;
  client->query("idle", sim::kSecond,
                [&](util::Result<sched::QueueSnapshot>) {
                  done_at = engine->now();
                });
  engine->run();
  // 2 one-way 2 ms hops + 5 ms lookup = 9 ms.
  EXPECT_EQ(done_at, 9 * sim::kMillisecond);
}

TEST_F(GisFixture, UnknownContactReturnsNotFound) {
  util::Status status;
  client->query("mystery", sim::kSecond,
                [&](util::Result<sched::QueueSnapshot> r) {
                  status = r.status();
                });
  engine->run();
  EXPECT_EQ(status.code(), util::ErrorCode::kNotFound);
}

TEST_F(GisFixture, SnapshotsAreStaleNotLive) {
  // New load arrives after the last publish; a query must NOT see it.
  sched::JobDescriptor d;
  d.id = 2;
  d.count = 32;
  d.runtime = sim::kHour;
  idle->submit(d, nullptr, nullptr);
  util::Result<sched::QueueSnapshot> got{
      util::Status(util::ErrorCode::kInternal, "unset")};
  client->query("idle", sim::kSecond,
                [&](util::Result<sched::QueueSnapshot> r) {
                  got = std::move(r);
                });
  engine->run_until(sim::kSecond);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().busy_processors, 0);  // stale view
}

TEST_F(GisFixture, ListContactsEnumeratesDirectory) {
  std::vector<std::string> contacts;
  client->list_contacts(sim::kSecond,
                        [&](util::Result<std::vector<std::string>> r) {
                          ASSERT_TRUE(r.is_ok());
                          contacts = r.take();
                        });
  engine->run();
  EXPECT_EQ(contacts, (std::vector<std::string>{"busy", "idle"}));
}

// A reply whose contact count (2^62) is far past what it holds is reported
// as malformed; the client must not size a vector from the count.
TEST_F(GisFixture, HugeContactCountReplyIsMalformed) {
  net::Endpoint fake_gis(*network, "fake-gis");
  fake_gis.register_method(
      info::kMethodListContacts,
      [&](net::NodeId caller, std::uint64_t id, util::Reader&) {
        util::Writer w;
        w.varint(std::uint64_t{1} << 62);
        fake_gis.respond(caller, id, w.take());
      });
  info::GisClient to_fake(*endpoint, fake_gis.id());
  int callbacks = 0;
  util::Status status;
  to_fake.list_contacts(sim::kSecond,
                        [&](util::Result<std::vector<std::string>> r) {
                          ++callbacks;
                          status = r.status();
                        });
  engine->run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(status.code(), util::ErrorCode::kInternal);
  EXPECT_EQ(status.message(), "malformed contact list");
}

TEST_F(GisFixture, CrashedServerTimesOut) {
  network->set_node_up(server->contact(), false);
  util::Status status;
  client->query("busy", sim::kSecond,
                [&](util::Result<sched::QueueSnapshot> r) {
                  status = r.status();
                });
  engine->run();
  EXPECT_EQ(status.code(), util::ErrorCode::kTimeout);
}

TEST_F(GisFixture, QueryManyPreservesOrderAndPartialFailures) {
  std::vector<util::Result<sched::QueueSnapshot>> results;
  bool done = false;
  client->query_many({"idle", "mystery", "busy"}, sim::kSecond,
                     [&](std::vector<util::Result<sched::QueueSnapshot>> r) {
                       results = std::move(r);
                       done = true;
                     });
  engine->run();
  ASSERT_TRUE(done);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].is_ok());
  EXPECT_EQ(results[0].value().busy_processors, 0);
  EXPECT_FALSE(results[1].is_ok());
  EXPECT_TRUE(results[2].is_ok());
  EXPECT_EQ(results[2].value().busy_processors, 64);
}

TEST_F(GisFixture, QueryManySummariesPreservesOrderAndPartialFailures) {
  std::vector<util::Result<sched::QueueSummary>> results;
  bool done = false;
  client->query_many_summaries(
      {"idle", "mystery", "busy"}, sim::kSecond,
      [&](std::vector<util::Result<sched::QueueSummary>> r) {
        results = std::move(r);
        done = true;
      });
  engine->run();
  ASSERT_TRUE(done);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].is_ok());
  EXPECT_EQ(results[0].value().busy_processors, 0);
  EXPECT_EQ(results[1].status().code(), util::ErrorCode::kNotFound);
  ASSERT_TRUE(results[2].is_ok());
  EXPECT_EQ(results[2].value().busy_processors, 64);
  EXPECT_EQ(server->queries_served(), 3u);
}

TEST_F(GisFixture, QueryManyEmptyCompletesImmediately) {
  bool done = false;
  client->query_many({}, sim::kSecond,
                     [&](std::vector<util::Result<sched::QueueSnapshot>> r) {
                       EXPECT_TRUE(r.empty());
                       done = true;
                     });
  EXPECT_TRUE(done);
  done = false;
  client->query_many_summaries(
      {}, sim::kSecond, [&](std::vector<util::Result<sched::QueueSummary>> r) {
        EXPECT_TRUE(r.empty());
        done = true;
      });
  EXPECT_TRUE(done);
}

TEST(GisFanOut, AllocatesNothingPerCandidate) {
  // A broker fans out over every candidate for every request, so the
  // fan-out's cost must not grow with the candidate count: each call's
  // callback stays inside the endpoint's inline ResponseFn.
  sim::Engine engine;
  net::Network network(engine);
  sched::LoadInformationService service(engine, 10 * sim::kSecond);
  std::vector<std::unique_ptr<sched::BatchScheduler>> machines;
  std::vector<std::string> contacts;
  for (int i = 0; i < 24; ++i) {
    machines.push_back(std::make_unique<sched::BatchScheduler>(engine, 64));
    contacts.push_back("rm" + std::to_string(i));
    service.register_resource(contacts.back(), machines.back().get());
  }
  service.publish_now();
  info::GisServer server(network, service);
  net::Endpoint endpoint(network, "broker");
  info::GisClient client(endpoint, server.contact());
  const auto fan_out = [&](std::size_t n) {
    std::vector<std::string> some(
        contacts.begin(), contacts.begin() + static_cast<std::ptrdiff_t>(n));
    std::size_t ok = 0;
    sim::AllocGuard guard;
    client.query_many_summaries(
        std::move(some), sim::kSecond,
        [&](std::vector<util::Result<sched::QueueSummary>> results) {
          for (const auto& r : results) ok += r.is_ok() ? 1 : 0;
        });
    engine.run();
    const std::uint64_t allocations = guard.allocations();
    EXPECT_EQ(ok, n);
    return allocations;
  };
  for (int i = 0; i < 4; ++i) fan_out(24);  // tables and pools reach capacity
  const std::uint64_t eight = fan_out(8);
  const std::uint64_t twenty_four = fan_out(24);
  EXPECT_LE(twenty_four, eight) << "8 candidates: " << eight;
}

// ---- summary-first, shared snapshots, and the reply-payload cache ---------

TEST_F(GisFixture, SummaryQueryMatchesSnapshotAggregates) {
  // Give the busy machine a queued job so every aggregate field is nonzero.
  sched::JobDescriptor d;
  d.id = 2;
  d.count = 32;
  d.runtime = sim::kHour;
  d.estimated_runtime = sim::kHour;
  busy->submit(d, nullptr, nullptr);
  service->publish_now();
  util::Result<sched::QueueSummary> summary{
      util::Status(util::ErrorCode::kInternal, "unset")};
  util::Result<sched::QueueSnapshot> snap{
      util::Status(util::ErrorCode::kInternal, "unset")};
  client->query_summary("busy", sim::kSecond,
                        [&](util::Result<sched::QueueSummary> r) {
                          summary = std::move(r);
                        });
  client->query("busy", sim::kSecond,
                [&](util::Result<sched::QueueSnapshot> r) {
                  snap = std::move(r);
                });
  engine->run();
  ASSERT_TRUE(summary.is_ok()) << summary.status().to_string();
  ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
  const sched::QueueSummary derived = sched::summarize(snap.value());
  EXPECT_EQ(summary.value().taken_at, derived.taken_at);
  EXPECT_EQ(summary.value().total_processors, derived.total_processors);
  EXPECT_EQ(summary.value().busy_processors, derived.busy_processors);
  EXPECT_EQ(summary.value().queue_length, 1u);
  EXPECT_EQ(summary.value().queued_work, derived.queued_work);
}

TEST_F(GisFixture, PayloadCacheServesSharedFramesUntilRepublish) {
  const auto query_busy = [&] {
    bool done = false;
    client->query("busy", sim::kSecond,
                  [&](util::Result<sched::QueueSnapshot> r) {
                    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
                    done = true;
                  });
    engine->run();
    EXPECT_TRUE(done);
  };
  query_busy();
  query_busy();
  // First query encoded the reply; the second reused the shared frame.
  EXPECT_EQ(server->cache_stats().misses, 1u);
  EXPECT_EQ(server->cache_stats().hits, 1u);
  // New published content invalidates the cached frame exactly once.
  sched::JobDescriptor d;
  d.id = 3;
  d.count = 32;
  d.runtime = sim::kHour;
  busy->submit(d, nullptr, nullptr);
  service->publish_now();
  query_busy();
  EXPECT_EQ(server->cache_stats().misses, 2u);
  EXPECT_EQ(server->cache_stats().hits, 1u);
  query_busy();
  EXPECT_EQ(server->cache_stats().hits, 2u);
}

TEST_F(GisFixture, SharedSnapshotSurvivesRepublish) {
  const auto id = service->resolve("busy");
  ASSERT_NE(id, 0u);
  auto ref = service->snapshot_ref(id);
  ASSERT_TRUE(ref.is_ok());
  const sched::LoadInformationService::SnapshotRef held = ref.value();
  EXPECT_EQ(held->busy_processors, 64);
  EXPECT_TRUE(held->queued.empty());
  // A republish with new content swaps in a fresh snapshot object; the
  // held reference keeps observing the old one (query_many fan-outs hold
  // refs across publish rounds exactly like this).
  sched::JobDescriptor d;
  d.id = 4;
  d.count = 32;
  d.runtime = sim::kHour;
  busy->submit(d, nullptr, nullptr);
  service->publish_now();
  auto fresh = service->snapshot_ref(id);
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_NE(fresh.value().get(), held.get());
  EXPECT_EQ(fresh.value()->queued.size(), 1u);
  EXPECT_TRUE(held->queued.empty());
}

TEST_F(GisFixture, DirtyFlagRepublishSkipsUnchangedQueues) {
  const auto id_busy = service->resolve("busy");
  const auto id_idle = service->resolve("idle");
  const std::uint64_t v_busy = service->published_version(id_busy);
  const std::uint64_t v_idle = service->published_version(id_idle);
  const auto before = service->stats();
  // Nothing moved since the fixture's publish: both entries skip.
  service->publish_now();
  EXPECT_EQ(service->stats().snapshots_skipped,
            before.snapshots_skipped + 2);
  EXPECT_EQ(service->published_version(id_busy), v_busy);
  EXPECT_EQ(service->published_version(id_idle), v_idle);
  // A submit dirties exactly one scheduler; only that entry re-copies.
  sched::JobDescriptor d;
  d.id = 5;
  d.count = 8;
  d.runtime = sim::kHour;
  busy->submit(d, nullptr, nullptr);
  service->publish_now();
  EXPECT_EQ(service->stats().snapshots_skipped,
            before.snapshots_skipped + 3);
  EXPECT_EQ(service->stats().snapshots_refreshed,
            before.snapshots_refreshed + 1);
  EXPECT_GT(service->published_version(id_busy), v_busy);
  EXPECT_EQ(service->published_version(id_idle), v_idle);
}

// ---- broker ---------------------------------------------------------------------

TEST_F(GisFixture, BrokerPicksLeastLoaded) {
  sched::AggregateWorkPredictor predictor;
  info::ResourceBroker broker(*client, predictor);
  util::Result<std::vector<info::ResourceBroker::Placement>> got{
      util::Status(util::ErrorCode::kInternal, "unset")};
  broker.select({"busy", "idle"}, 1, 16, sim::kSecond,
                [&](util::Result<std::vector<info::ResourceBroker::Placement>>
                        r) { got = std::move(r); });
  engine->run();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  ASSERT_EQ(got.value().size(), 1u);
  EXPECT_EQ(got.value()[0].contact, "idle");
  EXPECT_EQ(got.value()[0].free_processors, 64);
}

TEST_F(GisFixture, BrokerSkipsTooSmallMachines) {
  sched::AggregateWorkPredictor predictor;
  info::ResourceBroker broker(*client, predictor);
  util::Status status;
  // Asking for 128 processors: neither 64-way machine qualifies.
  broker.select({"busy", "idle"}, 1, 128, sim::kSecond,
                [&](util::Result<std::vector<info::ResourceBroker::Placement>>
                        r) { status = r.status(); });
  engine->run();
  EXPECT_EQ(status.code(), util::ErrorCode::kResourceExhausted);
}

TEST_F(GisFixture, BrokerErrorsWhenTooFewCandidates) {
  sched::AggregateWorkPredictor predictor;
  info::ResourceBroker broker(*client, predictor);
  util::Status status;
  broker.select({"busy", "mystery"}, 2, 16, sim::kSecond,
                [&](util::Result<std::vector<info::ResourceBroker::Placement>>
                        r) { status = r.status(); });
  engine->run();
  EXPECT_EQ(status.code(), util::ErrorCode::kResourceExhausted);
}

TEST_F(GisFixture, BrokerRejectsDegenerateInputs) {
  sched::AggregateWorkPredictor predictor;
  info::ResourceBroker broker(*client, predictor);
  util::Status status;
  broker.select({}, 1, 16, sim::kSecond,
                [&](util::Result<std::vector<info::ResourceBroker::Placement>>
                        r) { status = r.status(); });
  EXPECT_EQ(status.code(), util::ErrorCode::kInvalidArgument);
}

TEST_F(GisFixture, BrokerSummarySelectionMatchesSnapshotSelection) {
  // The documented contract: with the stock predictors, the summary-first
  // path ranks candidates identically to full-snapshot selection.
  sched::AggregateWorkPredictor predictor;
  info::ResourceBroker broker(*client, predictor);
  util::Result<std::vector<info::ResourceBroker::Placement>> via_snap{
      util::Status(util::ErrorCode::kInternal, "unset")};
  util::Result<std::vector<info::ResourceBroker::Placement>> via_summary{
      util::Status(util::ErrorCode::kInternal, "unset")};
  broker.select({"busy", "idle"}, 2, 16, sim::kSecond,
                [&](util::Result<std::vector<info::ResourceBroker::Placement>>
                        r) { via_snap = std::move(r); });
  broker.select_by_summary(
      {"busy", "idle"}, 2, 16, sim::kSecond,
      [&](util::Result<std::vector<info::ResourceBroker::Placement>> r) {
        via_summary = std::move(r);
      });
  engine->run();
  ASSERT_TRUE(via_snap.is_ok()) << via_snap.status().to_string();
  ASSERT_TRUE(via_summary.is_ok()) << via_summary.status().to_string();
  ASSERT_EQ(via_snap.value().size(), via_summary.value().size());
  for (std::size_t i = 0; i < via_snap.value().size(); ++i) {
    EXPECT_EQ(via_snap.value()[i].contact, via_summary.value()[i].contact);
    EXPECT_EQ(via_snap.value()[i].predicted_wait,
              via_summary.value()[i].predicted_wait);
    EXPECT_EQ(via_snap.value()[i].free_processors,
              via_summary.value()[i].free_processors);
  }
}

TEST(Broker, BuildRequestsMapsPlacements) {
  std::vector<info::ResourceBroker::Placement> placements = {
      {"hostA", sim::kSecond, 64},
      {"hostB", 2 * sim::kSecond, 32},
  };
  auto jobs = info::ResourceBroker::build_requests(
      placements, 16, "sim", rsl::SubjobStartType::kRequired);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].resource_manager_contact, "hostA");
  EXPECT_EQ(jobs[1].resource_manager_contact, "hostB");
  EXPECT_EQ(jobs[0].count, 16);
  EXPECT_EQ(jobs[0].start_type, rsl::SubjobStartType::kRequired);
}

TEST(BrokerIntegration, EndToEndSelectionAndCoallocation) {
  // Full stack: grid + GIS + broker + DUROC.  The broker avoids the loaded
  // machine; the co-allocation releases on the two idle ones.
  test::SmallGrid g(3);
  sched::LoadInformationService service(g.grid->engine(), 30 * sim::kSecond);
  for (int i = 1; i <= 3; ++i) {
    const std::string name = "host" + std::to_string(i);
    service.register_resource(name, &g.grid->host(name)->scheduler());
  }
  info::GisServer server(g.grid->network(), service);
  // host2 is fork-scheduled (unbounded), so use queue length via busy
  // processors: occupy it with a fork job.
  sched::JobDescriptor d;
  d.id = 77;
  d.count = 64;
  d.runtime = sim::kHour;
  g.grid->host("host2")->scheduler().submit(d, nullptr, nullptr);
  g.grid->run_until(sim::kSecond);
  service.publish_now();

  net::Endpoint ep(g.grid->network(), "broker");
  info::GisClient client(ep, server.contact());
  sched::AggregateWorkPredictor predictor;
  info::ResourceBroker broker(client, predictor);

  test::Outcome outcome;
  broker.select(
      {"host1", "host2", "host3"}, 2, 8, sim::kSecond,
      [&](util::Result<std::vector<info::ResourceBroker::Placement>> r) {
        ASSERT_TRUE(r.is_ok());
        for (const auto& p : r.value()) EXPECT_NE(p.contact, "host2");
        auto jobs = info::ResourceBroker::build_requests(
            r.value(), 8, "app", rsl::SubjobStartType::kRequired);
        auto* req = g.coallocator->create_request(outcome.callbacks());
        for (auto& j : jobs) req->add_subjob(std::move(j));
        req->commit();
      });
  g.grid->run();
  EXPECT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 16);
}

}  // namespace
}  // namespace grid
