// Tests for co-reservation through the GRAM protocol (the §5 extension):
// remote reserve/cancel, the network two-phase co-reserver, and the full
// co-reserve-then-co-allocate pipeline via the reservationId attribute.
#include <gtest/gtest.h>

#include <limits>

#include "core/coreserver.hpp"
#include "rsl/parser.hpp"
#include "test_util.hpp"

namespace grid {
namespace {

using test::Outcome;

struct CoReserveFixture : ::testing::Test {
  CoReserveFixture() : grid(testbed::CostModel::fast()) {
    for (int i = 1; i <= 3; ++i) {
      grid.add_host("res" + std::to_string(i), 64,
                    testbed::SchedulerKind::kReservation);
    }
    grid.add_host("plain", 64, testbed::SchedulerKind::kFork);
    app::install_app(grid.executables(), "app", {}, &stats);
    coallocator = grid.make_coallocator("agent", "/CN=coreserve");
  }

  testbed::Grid grid;
  app::BarrierStats stats;
  std::unique_ptr<core::Coallocator> coallocator;
};

TEST_F(CoReserveFixture, RemoteReserveGrantsWindow) {
  util::Result<gram::Client::ReservationHandle> got{
      util::Status(util::ErrorCode::kInternal, "unset")};
  coallocator->gram().reserve(
      grid.host("res1")->contact(), sim::kHour, 2 * sim::kHour, 32,
      10 * sim::kSecond,
      [&](util::Result<gram::Client::ReservationHandle> r) {
        got = std::move(r);
      });
  // Stop before the window expires: the scheduler reclaims windows at their
  // end time, so a full run() would observe an empty reservation table.
  grid.run_until(sim::kMinute);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_GT(got.value().id, 0u);
  EXPECT_EQ(got.value().start, sim::kHour);
  EXPECT_EQ(got.value().end, 2 * sim::kHour);
  EXPECT_EQ(grid.host("res1")->reservation_scheduler()->reservation_count(),
            1u);
}

TEST_F(CoReserveFixture, ReserveOnPlainHostRefused) {
  util::Status status;
  coallocator->gram().reserve(
      grid.host("plain")->contact(), sim::kHour, 2 * sim::kHour, 32,
      10 * sim::kSecond,
      [&](util::Result<gram::Client::ReservationHandle> r) {
        status = r.status();
      });
  grid.run();
  EXPECT_EQ(status.code(), util::ErrorCode::kFailedPrecondition);
}

TEST_F(CoReserveFixture, OversizedReserveRefused) {
  util::Status status;
  coallocator->gram().reserve(
      grid.host("res1")->contact(), sim::kHour, 2 * sim::kHour, 128,
      10 * sim::kSecond,
      [&](util::Result<gram::Client::ReservationHandle> r) {
        status = r.status();
      });
  grid.run();
  EXPECT_EQ(status.code(), util::ErrorCode::kResourceExhausted);
}

TEST_F(CoReserveFixture, RemoteCancelReleasesWindow) {
  std::uint64_t rid = 0;
  coallocator->gram().reserve(
      grid.host("res1")->contact(), sim::kHour, 2 * sim::kHour, 64,
      10 * sim::kSecond,
      [&](util::Result<gram::Client::ReservationHandle> r) {
        ASSERT_TRUE(r.is_ok());
        rid = r.value().id;
      });
  grid.run_until(sim::kMinute);
  ASSERT_GT(rid, 0u);
  util::Status status(util::ErrorCode::kInternal, "unset");
  coallocator->gram().cancel_reservation(grid.host("res1")->contact(), rid,
                                         10 * sim::kSecond,
                                         [&](util::Status s) { status = s; });
  grid.run_until(2 * sim::kMinute);
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(grid.host("res1")->reservation_scheduler()->reservation_count(),
            0u);
  // Cancelling again is NotFound.
  util::Status again;
  coallocator->gram().cancel_reservation(grid.host("res1")->contact(), rid,
                                         10 * sim::kSecond,
                                         [&](util::Status s) { again = s; });
  grid.run_until(3 * sim::kMinute);
  EXPECT_EQ(again.code(), util::ErrorCode::kNotFound);
}

TEST_F(CoReserveFixture, NetworkCoReserverFindsCommonWindow) {
  // res2 is blocked for the first two hours.
  ASSERT_TRUE(grid.host("res2")
                  ->reservation_scheduler()
                  ->reserve(0, 2 * sim::kHour, 64)
                  .is_ok());
  core::NetworkCoReserver reserver(coallocator->gram(), grid.resolver());
  core::NetworkCoReserver::Options options;
  options.duration = sim::kHour;
  options.count = 32;
  options.step = 30 * sim::kMinute;
  util::Result<std::vector<core::NetworkCoReserver::Hold>> got{
      util::Status(util::ErrorCode::kInternal, "unset")};
  reserver.acquire(
      {"res1", "res2", "res3"}, options,
      [&](util::Result<std::vector<core::NetworkCoReserver::Hold>> r) {
        got = std::move(r);
      });
  grid.run_until(sim::kHour);  // before any window expires
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  ASSERT_EQ(got.value().size(), 3u);
  for (const auto& hold : got.value()) {
    EXPECT_EQ(hold.start, 2 * sim::kHour);
    EXPECT_GT(hold.reservation, 0u);
  }
  // Rollbacks left no strays: each machine holds exactly the final window
  // (plus res2's pre-existing block).
  EXPECT_EQ(grid.host("res1")->reservation_scheduler()->reservation_count(),
            1u);
  EXPECT_EQ(grid.host("res2")->reservation_scheduler()->reservation_count(),
            2u);
}

TEST_F(CoReserveFixture, ReserverDestroyedMidAcquisitionStillFinishes) {
  // The acquisition holds the client, not the reserver: destroying the
  // reserver right after acquire() leaves it to finish and report once.
  auto reserver = std::make_unique<core::NetworkCoReserver>(
      coallocator->gram(), grid.resolver());
  int calls = 0;
  util::Result<std::vector<core::NetworkCoReserver::Hold>> got{
      util::Status(util::ErrorCode::kInternal, "unset")};
  reserver->acquire(
      {"res1", "res2"}, {},
      [&](util::Result<std::vector<core::NetworkCoReserver::Hold>> r) {
        ++calls;
        got = std::move(r);
      });
  reserver.reset();
  grid.run_until(sim::kHour);  // before any window expires
  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value().size(), 2u);
}

TEST_F(CoReserveFixture, CoReserverFailsFastOnUnsupportedResource) {
  core::NetworkCoReserver reserver(coallocator->gram(), grid.resolver());
  util::Status status;
  reserver.acquire(
      {"res1", "plain"}, {},
      [&](util::Result<std::vector<core::NetworkCoReserver::Hold>> r) {
        status = r.status();
      });
  grid.run();
  EXPECT_EQ(status.code(), util::ErrorCode::kFailedPrecondition);
  // The res1 acquisition was rolled back.
  EXPECT_EQ(grid.host("res1")->reservation_scheduler()->reservation_count(),
            0u);
}

TEST_F(CoReserveFixture, CoReserverUnknownContactFails) {
  core::NetworkCoReserver reserver(coallocator->gram(), grid.resolver());
  util::Status status;
  reserver.acquire(
      {"res1", "nowhere"}, {},
      [&](util::Result<std::vector<core::NetworkCoReserver::Hold>> r) {
        status = r.status();
      });
  grid.run();
  EXPECT_EQ(status.code(), util::ErrorCode::kNotFound);
}

TEST_F(CoReserveFixture, ReservationIdRslRoundTrip) {
  // Reservation ids are unsigned 64-bit, as build_requests reads them off
  // the wire.  Each prints and parses back whole, and the gatekeeper hands
  // it to the scheduler, which holds none of these reservations.
  constexpr std::uint64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
  const std::uint64_t ids[] = {1, 42, kInt64Max, kInt64Max + 1,
                               std::numeric_limits<std::uint64_t>::max()};
  std::vector<util::Status> submitted;
  for (const std::uint64_t id : ids) {
    rsl::JobRequest j;
    j.resource_manager_contact = "res1";
    j.executable = "app";
    j.count = 8;
    j.reservation_id = id;
    const std::string text = j.to_rsl();
    EXPECT_NE(text.find("(reservationid=" + std::to_string(id) + ")"),
              std::string::npos)
        << text;
    auto back = rsl::parse_job_request(text);
    ASSERT_TRUE(back.is_ok()) << text << ": " << back.status().to_string();
    EXPECT_EQ(back.value(), j);
    coallocator->gram().submit(
        grid.host("res1")->contact(), text, 10 * sim::kSecond,
        [&](util::Result<gram::JobId> r) { submitted.push_back(r.status()); },
        nullptr);
  }
  grid.run_until(sim::kMinute);
  ASSERT_EQ(submitted.size(), std::size(ids));
  for (const util::Status& status : submitted) {
    EXPECT_EQ(status.code(), util::ErrorCode::kNotFound) << status.to_string();
  }
}

TEST_F(CoReserveFixture, ReservedJobOnPlainHostFailsAtSubmission) {
  Outcome outcome;
  auto* req = coallocator->create_request(outcome.callbacks());
  rsl::JobRequest j;
  j.resource_manager_contact = "plain";
  j.executable = "app";
  j.count = 4;
  j.reservation_id = 7;
  req->add_subjob(std::move(j));
  req->commit();
  grid.run();
  EXPECT_FALSE(outcome.released);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
}

TEST_F(CoReserveFixture, FullReservationRefusesAnotherBoundJob) {
  // The gatekeeper passes the RSL reservationId through to the scheduler,
  // so any GRAM client can bind jobs to a window: once the window's count
  // is taken, a further bound job is refused at submission.
  auto r = grid.host("res1")->reservation_scheduler()->reserve(
      sim::kHour, 2 * sim::kHour, 64);
  ASSERT_TRUE(r.is_ok());
  rsl::JobRequest j;
  j.resource_manager_contact = "res1";
  j.executable = "app";
  j.count = 64;
  j.reservation_id = r.value().id;
  const std::string text = j.to_rsl();
  std::vector<util::Status> accepted;
  for (int i = 0; i < 2; ++i) {
    coallocator->gram().submit(
        grid.host("res1")->contact(), text, 10 * sim::kSecond,
        [&](util::Result<gram::JobId> id) { accepted.push_back(id.status()); },
        nullptr);
  }
  grid.run_until(sim::kMinute);
  ASSERT_EQ(accepted.size(), 2u);
  EXPECT_TRUE(accepted[0].is_ok()) << accepted[0].to_string();
  EXPECT_EQ(accepted[1].code(), util::ErrorCode::kResourceExhausted)
      << accepted[1].to_string();
}

TEST_F(CoReserveFixture, CoReserveThenCoallocatePipeline) {
  // The full §5 pipeline: acquire a common window on three machines, bind
  // the subjobs to the reservations, and verify every subjob goes ACTIVE
  // exactly at the window start.
  for (auto* name : {"res1", "res2", "res3"}) {
    // Pre-existing best-effort load on every machine.
    sched::JobDescriptor bg;
    bg.id = 0xb0;
    bg.count = 64;
    bg.runtime = 90 * sim::kMinute;
    bg.estimated_runtime = bg.runtime;
    grid.host(name)->scheduler().submit(bg, nullptr, nullptr);
  }
  core::NetworkCoReserver reserver(coallocator->gram(), grid.resolver());
  core::NetworkCoReserver::Options options;
  options.duration = sim::kHour;
  options.count = 16;
  options.step = 30 * sim::kMinute;
  // The subjobs wait for a window ~90 minutes out; the startup deadline
  // must cover the wait-for-window period.
  core::RequestConfig config;
  config.startup_timeout = 3 * sim::kHour;
  Outcome outcome;
  sim::Time window = -1;
  reserver.acquire(
      {"res1", "res2", "res3"}, options,
      [&](util::Result<std::vector<core::NetworkCoReserver::Hold>> r) {
        ASSERT_TRUE(r.is_ok()) << r.status().to_string();
        window = r.value().front().start;
        auto jobs = core::NetworkCoReserver::build_requests(
            r.value(), 16, "app", rsl::SubjobStartType::kRequired);
        auto* req = coallocator->create_request(outcome.callbacks(), config);
        for (auto& job : jobs) req->add_subjob(std::move(job));
        req->commit();
      });
  grid.run();
  ASSERT_TRUE(outcome.released);
  ASSERT_GT(window, 0);
  EXPECT_EQ(outcome.config.total_processes, 48);
  // Every subjob's processes started (ACTIVE) at the window, simultaneously.
  auto* req = coallocator->find_request(outcome.config.request);
  ASSERT_NE(req, nullptr);
  ASSERT_EQ(req->subjob_count(), 3u);
  for (core::SubjobHandle h = 1; h <= req->subjob_count(); ++h) {
    auto view = req->subjob_brief(h);
    ASSERT_TRUE(view.is_ok());
    // active_at = window + exec_startup (1 ms in the fast model).
    EXPECT_NEAR(sim::to_seconds(view.value().active_at),
                sim::to_seconds(window), 0.01);
  }
}

}  // namespace
}  // namespace grid
