// GRID_CHECKED tripwire tests.
//
// Under the `checked` preset every simkit invariant GRID_CHECK guards is a
// hard abort; these death tests prove each tripwire actually fires on the
// misuse it names — a tripwire that never fires is indistinguishable from
// one that was compiled out.  Under any other preset GRID_CHECK is a
// no-op, so the whole suite reduces to a single skip marker (the binary
// still builds and links everywhere, keeping the checked-only code from
// rotting).
#include <gtest/gtest.h>

#include <utility>

#include "net/network.hpp"
#include "net/rpc.hpp"
#include "sched/batch.hpp"
#include "sched/infoservice.hpp"
#include "sched/profile.hpp"
#include "simkit/bufpool.hpp"
#include "simkit/check.hpp"
#include "simkit/codec.hpp"
#include "simkit/engine.hpp"
#include "simkit/idmap.hpp"

namespace grid {
namespace {

#if defined(GRID_CHECKED)

TEST(CheckedDeathTest, IdMapRejectsReservedZeroKey) {
  sim::IdMap m;
  EXPECT_DEATH(m.insert(0, 1), "key 0 is reserved");
}

TEST(CheckedDeathTest, IdMapRejectsDuplicateInsert) {
  sim::IdMap m;
  m.insert(5, 1);
  EXPECT_DEATH(m.insert(5, 2), "already present");
}

TEST(CheckedDeathTest, IdSlabRejectsZeroId) {
  sim::IdSlab<int> slab;
  EXPECT_DEATH(slab.emplace(0, 1), "ids must be nonzero");
}

TEST(CheckedDeathTest, IdSlabRejectsDuplicateEmplace) {
  sim::IdSlab<int> slab;
  slab.emplace(9, 1);
  EXPECT_DEATH(slab.emplace(9, 2), "already present");
}

TEST(CheckedDeathTest, SharedPayloadIsFrozen) {
  util::Writer w;
  w.u32(1234);
  sim::Payload p = w.take();
  sim::Payload other = p.share();
  // Two live handles: the unique-owner mutation rule must abort.
  EXPECT_DEATH(p.mutable_bytes(), "shared buffer");
}

TEST(CheckedDeathTest, UniquePayloadMayStillMutate) {
  util::Writer w;
  w.u32(1234);
  sim::Payload p = w.take();
  p.mutable_bytes().push_back(0xff);  // sole owner: allowed
  EXPECT_EQ(p.size(), 5u);
}

TEST(CheckedDeathTest, ProfileAbortsOnOversubscription) {
  sched::Profile p(4);
  p.reserve(0, 100, 3);
  // Claiming 2 more where only 1 is free drives free below zero.
  EXPECT_DEATH(p.reserve(50, 150, 2), "oversubscribed");
}

TEST(CheckedDeathTest, ProfileAbortsOnOverRelease) {
  sched::Profile p(4);
  p.reserve(0, 100, 2);
  // Returning more than was claimed would push free past capacity.
  EXPECT_DEATH(p.release(0, 100, 3), "release exceeds capacity");
}

// A scheduler has one publisher: registered under two contacts, its second
// registration re-marks it, and a query for the first contact's round
// aborts instead of serving the other round's queue.
TEST(CheckedDeathTest, PublishedQueueAnswersOnlyTheLatestMark) {
  sim::Engine e;
  sched::BatchScheduler s(e, 4);
  sched::LoadInformationService service(e, sim::kHour);
  service.register_resource("a", &s);
  sched::JobDescriptor d;
  d.id = 1;
  d.count = 4;
  s.submit(d, nullptr, nullptr);  // moves the version
  service.register_resource("b", &s);
  EXPECT_DEATH((void)service.snapshot_ref(service.resolve("a")),
               "did not mark last");
}

// The GRID_SHARD_LOCAL annotations (simkit/annotate.hpp) are analyzer
// metadata on per-thread state — they must not change codegen or weaken
// the runtime tripwires that guard that same state.  This test drives the
// annotated thread-local buffer pool through its abort path.

TEST(CheckedDeathTest, RecycledPayloadFromAnnotatedPoolStaysFrozen) {
  {
    util::Writer warm;
    warm.u32(1);
    sim::Payload scratch = warm.take();
  }  // buffer returns to the GRID_SHARD_LOCAL thread-local pool
  util::Writer w;
  w.u32(2);
  sim::Payload p = w.take();  // rides the recycled buffer
  sim::Payload other = p.share();
  EXPECT_DEATH(p.mutable_bytes(), "shared buffer");
}

// Positive coverage: a full simulation under GRID_CHECKED runs every
// hot-path audit (engine heap self-check after cancel, slab consistency
// on erase, endpoint teardown drain, profile interval-list audit after
// every scheduler mutation) without tripping any of them.
TEST(CheckedClean, CancelHeavyWorkloadPassesHeapAudit) {
  sim::Engine e;
  std::vector<sim::EventId> ids;
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(e.schedule_at((i % 50) * sim::kMillisecond, [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    e.cancel(ids[i]);  // each cancel runs the O(n) heap audit
  }
  e.run();
  EXPECT_EQ(fired, 200 - 67);
}

TEST(CheckedClean, EndpointLifecyclePassesTeardownAudit) {
  sim::Engine e;
  net::Network net{e};
  net::Endpoint server{net, "server"};
  server.register_method(
      1, [&](net::NodeId caller, std::uint64_t id, util::Reader&) {
        server.respond(caller, id, {});
      });
  {
    net::Endpoint client{net, "client"};
    for (int i = 0; i < 20; ++i) {
      client.call(server.id(), 1, {}, sim::kSecond,
                  [](const util::Status&, util::Reader&) {});
    }
    e.run_until(sim::kMillisecond);  // leave some calls in flight
  }
  EXPECT_EQ(net::Endpoint::last_teardown_report().leaked_slots, 0u);
  e.run();
}

#else  // !GRID_CHECKED

TEST(CheckedTest, RequiresGridCheckedBuild) {
  GTEST_SKIP() << "GRID_CHECK tripwires compile to no-ops in this build; "
                  "configure with --preset checked to run the death tests.";
}

#endif

}  // namespace
}  // namespace grid
