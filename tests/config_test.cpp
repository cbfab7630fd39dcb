// Tests for the configuration mechanisms (§3.3) and the gridmpi runtime:
// runtime queries, bootstrap address exchange, point-to-point messages,
// and collectives across heterogeneous subjob layouts.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>

#include "config/gridmpi.hpp"
#include "core/app_barrier.hpp"
#include "test_util.hpp"

namespace grid {
namespace {

using test::Outcome;
using test::SmallGrid;

// ---- ConfigRuntime (pure queries) ------------------------------------------

core::ReleaseInfo sample_info() {
  core::ReleaseInfo info;
  info.config.request = 9;
  info.config.total_processes = 10;
  info.config.subjobs = {
      {101, 0, 2, 0, 11, "host1"},
      {102, 1, 5, 2, 22, "host2"},
      {103, 2, 3, 7, 33, "host3"},
  };
  info.subjob_index = 1;
  info.local_rank = 3;
  info.global_rank = 5;
  info.subjob_members = {22, 23, 24, 25, 26};
  return info;
}

TEST(ConfigRuntime, Section33OperationSet) {
  cfg::ConfigRuntime rt(sample_info());
  // "determine the number of subjobs in a resource set"
  EXPECT_EQ(rt.subjob_count(), 3);
  // "determine the size of a specific subjob"
  EXPECT_EQ(rt.subjob_size(0), 2);
  EXPECT_EQ(rt.subjob_size(1), 5);
  EXPECT_EQ(rt.subjob_size(2), 3);
  EXPECT_EQ(rt.subjob_size(7), 0);
  // intra-subjob communication: member addresses
  EXPECT_EQ(rt.my_subjob_members().size(), 5u);
  // inter-subjob communication: a contactable node per subjob
  EXPECT_EQ(rt.subjob_leader(0), 11u);
  EXPECT_EQ(rt.subjob_leader(2), 33u);
  EXPECT_EQ(rt.subjob_leader(-1), net::kInvalidNode);
}

TEST(ConfigRuntime, DerivedCoordinates) {
  cfg::ConfigRuntime rt(sample_info());
  EXPECT_EQ(rt.my_subjob(), 1);
  EXPECT_EQ(rt.my_local_rank(), 3);
  EXPECT_EQ(rt.my_global_rank(), 5);
  EXPECT_FALSE(rt.is_leader());
  EXPECT_EQ(rt.total_processes(), 10);
  EXPECT_EQ(rt.rank_base(2), 7);
  EXPECT_EQ(rt.locate(0), (std::pair<std::int32_t, std::int32_t>{0, 0}));
  EXPECT_EQ(rt.locate(6), (std::pair<std::int32_t, std::int32_t>{1, 4}));
  EXPECT_EQ(rt.locate(9), (std::pair<std::int32_t, std::int32_t>{2, 2}));
  EXPECT_EQ(rt.locate(42), (std::pair<std::int32_t, std::int32_t>{-1, -1}));
}

TEST(RuntimeConfig, CodecRoundTrip) {
  const core::ReleaseInfo info = sample_info();
  util::Writer w;
  info.encode(w);
  util::Reader r(w.bytes());
  const core::ReleaseInfo back = core::ReleaseInfo::decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.config, info.config);
  EXPECT_EQ(back.subjob_index, info.subjob_index);
  EXPECT_EQ(back.global_rank, info.global_rank);
  EXPECT_EQ(back.subjob_members, info.subjob_members);
}

// ---- gridmpi bootstrap frames ------------------------------------------------

// A table frame whose count (2^62) is far past what it holds is dropped:
// the rank sizes no vector from the count and stays uninitialized, and a
// well-formed frame afterwards still completes the bootstrap.
TEST(GridMpi, TableFrameWithHugeCountIsDropped) {
  sim::Engine engine;
  net::Network network{engine};
  net::Endpoint leader_ep{network, "leader"};
  net::Endpoint member_ep{network, "member"};
  net::Endpoint peer{network, "peer"};  // plays subjob 1's leader
  // Two subjobs of two processes: `leader` is subjob 0's rank 0 and waits
  // for subjob 1's leader table; `member` is its rank 1 and waits for the
  // full table.
  core::ReleaseInfo info;
  info.config.total_processes = 4;
  info.config.subjobs = {{1, 0, 2, 0, leader_ep.id(), "a"},
                         {2, 1, 2, 2, peer.id(), "b"}};
  info.subjob_members = {leader_ep.id(), member_ep.id()};
  cfg::Communicator leader(leader_ep, info);
  info.local_rank = 1;
  info.global_rank = 1;
  cfg::Communicator member(member_ep, info);
  leader.init([] {});
  member.init([] {});

  // gridmpi's wire kinds of the two table frames.
  constexpr std::uint8_t kLeaderTable = 2;
  constexpr std::uint8_t kFullTable = 3;
  constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 62;
  util::Writer bad_leader_table;
  bad_leader_table.u8(kLeaderTable);
  bad_leader_table.i32(1);
  bad_leader_table.varint(kHugeCount);
  peer.notify(leader_ep.id(), cfg::kNotifyGridMpi, bad_leader_table.take());
  util::Writer bad_full_table;
  bad_full_table.u8(kFullTable);
  bad_full_table.varint(kHugeCount);
  peer.notify(member_ep.id(), cfg::kNotifyGridMpi, bad_full_table.take());
  engine.run();
  EXPECT_FALSE(leader.initialized());
  EXPECT_FALSE(member.initialized());

  // Subjob 1's real table completes the leader, which then sends the full
  // table to its member.
  util::Writer leader_table;
  leader_table.u8(kLeaderTable);
  leader_table.i32(1);
  leader_table.varint(2);
  leader_table.u32(peer.id());
  leader_table.u32(peer.id());
  peer.notify(leader_ep.id(), cfg::kNotifyGridMpi, leader_table.take());
  engine.run();
  EXPECT_TRUE(leader.initialized());
  EXPECT_TRUE(member.initialized());
}

// A leader whose release names a subjob index one past its layout indexes
// no table slot (a heap overflow before init() checked it) and stays
// uninitialized; a peer leader's table arriving afterwards finds no sized
// tables and is dropped.
TEST(GridMpi, SubjobIndexOutsideLayoutLeavesUninitialized) {
  sim::Engine engine;
  net::Network network{engine};
  net::Endpoint ep{network, "leader"};
  net::Endpoint peer{network, "peer"};
  core::ReleaseInfo info;
  info.config.total_processes = 2;
  info.config.subjobs = {{1, 0, 1, 0, peer.id(), "a"},
                         {2, 1, 1, 1, peer.id(), "b"}};
  info.subjob_index = 2;  // == the subjob count
  info.subjob_members = {ep.id()};
  cfg::Communicator comm(ep, info);
  bool ready = false;
  comm.init([&ready] { ready = true; });
  engine.run();
  EXPECT_FALSE(comm.initialized());

  constexpr std::uint8_t kLeaderTable = 2;  // gridmpi's wire kind
  util::Writer table;
  table.u8(kLeaderTable);
  table.i32(0);
  table.varint(1);
  table.u32(peer.id());
  peer.notify(ep.id(), cfg::kNotifyGridMpi, table.take());
  engine.run();
  EXPECT_FALSE(comm.initialized());
  EXPECT_FALSE(ready);
}

// A one-subjob release with a negative world size sizes no table from it
// (std::length_error before init() checked it) and stays uninitialized.
TEST(GridMpi, NegativeTotalProcessesLeavesUninitialized) {
  sim::Engine engine;
  net::Network network{engine};
  net::Endpoint ep{network, "leader"};
  core::ReleaseInfo info;
  info.config.total_processes = -1;
  info.config.subjobs = {{1, 0, 1, 0, ep.id(), "a"}};
  info.subjob_members = {ep.id()};
  cfg::Communicator comm(ep, info);
  bool ready = false;
  comm.init([&ready] { ready = true; });
  engine.run();
  EXPECT_FALSE(comm.initialized());
  EXPECT_FALSE(ready);
}

// A leader builds the rank table from the member addresses the leaders
// sent, never from total_processes: a release that counts 3 processes in
// one 2-process subjob, or that starts its ranks at 1, leaves a rank with
// no address, so both communicators stay uninitialized.
TEST(GridMpi, LayoutThatDisagreesWithTheTablesLeavesUninitialized) {
  for (const auto& [total, base] : {std::pair{3, 0}, std::pair{2, 1}}) {
    SCOPED_TRACE("total_processes " + std::to_string(total) + ", rank base " +
                 std::to_string(base));
    sim::Engine engine;
    net::Network network{engine};
    net::Endpoint leader_ep{network, "leader"};
    net::Endpoint member_ep{network, "member"};
    core::ReleaseInfo info;
    info.config.total_processes = total;
    info.config.subjobs = {{1, 0, 2, base, leader_ep.id(), "a"}};
    info.subjob_members = {leader_ep.id(), member_ep.id()};
    info.global_rank = base;
    cfg::Communicator leader(leader_ep, info);
    info.local_rank = 1;
    info.global_rank = base + 1;
    cfg::Communicator member(member_ep, info);
    bool ready = false;
    leader.init([&ready] { ready = true; });
    member.init([&ready] { ready = true; });
    engine.run();
    EXPECT_FALSE(leader.initialized());
    EXPECT_FALSE(member.initialized());
    EXPECT_FALSE(ready);
  }
}

// ---- gridmpi over a real co-allocation ---------------------------------------

/// Shared driver: each MpiApp process registers its communicator here once
/// initialized; the test then runs collective scripts over them.
struct MpiWorld {
  std::map<std::int32_t, cfg::Communicator*> by_rank;
  int ready = 0;
  int expected = 0;
  std::function<void()> on_world_ready;

  void mark_ready(cfg::Communicator* c) {
    by_rank[c->rank()] = c;
    if (++ready == expected && on_world_ready) on_world_ready();
  }
};

/// Process behaviour: barrier, then Communicator::init, then report ready.
class MpiApp final : public gram::ProcessBehavior {
 public:
  explicit MpiApp(MpiWorld* world) : world_(world) {}

  void start(gram::ProcessApi& api) override {
    api_ = &api;
    barrier_ = std::make_unique<core::BarrierClient>(api);
    barrier_->enter(
        true, "",
        [this](const core::ReleaseView& release) {
          comm_ = std::make_unique<cfg::Communicator>(barrier_->endpoint(),
                                                      release.info());
          comm_->init([this] { world_->mark_ready(comm_.get()); });
        },
        [this](const std::string&) { api_->exit(true, "aborted"); });
  }

  void on_terminate() override {
    comm_.reset();
    barrier_.reset();
  }

 private:
  MpiWorld* world_;
  gram::ProcessApi* api_ = nullptr;
  std::unique_ptr<core::BarrierClient> barrier_;
  std::unique_ptr<cfg::Communicator> comm_;
};

struct MpiFixture {
  explicit MpiFixture(const std::vector<std::int32_t>& subjob_sizes) {
    const int hosts = static_cast<int>(subjob_sizes.size());
    g = std::make_unique<SmallGrid>(hosts);
    g->grid->executables().install(
        "mpiapp", [this] { return std::make_unique<MpiApp>(&world); });
    world.expected = std::accumulate(subjob_sizes.begin(), subjob_sizes.end(), 0);
    auto* req = g->coallocator->create_request(outcome.callbacks());
    std::vector<std::string> subs;
    for (int i = 0; i < hosts; ++i) {
      subs.push_back(testbed::rsl_subjob("host" + std::to_string(i + 1),
                                         subjob_sizes[static_cast<size_t>(i)],
                                         "mpiapp", "required"));
    }
    EXPECT_TRUE(req->add_rsl(testbed::rsl_multi(subs)).is_ok());
    req->commit();
  }

  std::unique_ptr<SmallGrid> g;
  MpiWorld world;
  Outcome outcome;
};

TEST(GridMpi, BootstrapBuildsFullWorld) {
  MpiFixture f({3, 2, 4});
  f.g->grid->run();
  ASSERT_EQ(f.world.ready, 9);
  for (int r = 0; r < 9; ++r) {
    ASSERT_TRUE(f.world.by_rank.contains(r)) << "rank " << r;
    EXPECT_EQ(f.world.by_rank[r]->size(), 9);
    EXPECT_TRUE(f.world.by_rank[r]->initialized());
  }
}

TEST(GridMpi, SingleSubjobSingleProcess) {
  MpiFixture f({1});
  f.g->grid->run();
  ASSERT_EQ(f.world.ready, 1);
  EXPECT_EQ(f.world.by_rank[0]->size(), 1);
}

TEST(GridMpi, PointToPointAcrossSubjobs) {
  MpiFixture f({2, 2});
  std::string got;
  std::int32_t got_src = -1;
  f.world.on_world_ready = [&] {
    // rank 3 (subjob 1) -> rank 0 (subjob 0): crosses subjob boundary.
    f.world.by_rank[0]->recv(7, [&](std::int32_t src, util::Reader& r) {
      got_src = src;
      got = r.str();
    });
    util::Writer w;
    w.str("hello across subjobs");
    f.world.by_rank[3]->send(0, 7, w.take_bytes());
  };
  f.g->grid->run();
  EXPECT_EQ(got_src, 3);
  EXPECT_EQ(got, "hello across subjobs");
}

TEST(GridMpi, EarlyMessagesDeliveredOnRecvRegistration) {
  MpiFixture f({1, 1});
  std::string got;
  f.world.on_world_ready = [&] {
    util::Writer w;
    w.str("early");
    f.world.by_rank[1]->send(0, 3, w.take_bytes());
    // Register the handler after the message is already in flight.
    f.g->grid->engine().schedule_after(sim::kSecond, [&] {
      f.world.by_rank[0]->recv(3, [&](std::int32_t, util::Reader& r) {
        got = r.str();
      });
    });
  };
  f.g->grid->run();
  EXPECT_EQ(got, "early");
}

TEST(GridMpi, AllReduceSumsContributions) {
  MpiFixture f({3, 1, 2});
  std::map<std::int32_t, std::int64_t> got;
  f.world.on_world_ready = [&] {
    for (auto& [rank, comm] : f.world.by_rank) {
      comm->allreduce_sum(rank + 1, [&, rank = rank](std::int64_t total) {
        got[rank] = total;
      });
    }
  };
  f.g->grid->run();
  ASSERT_EQ(got.size(), 6u);
  for (auto& [rank, total] : got) EXPECT_EQ(total, 21) << rank;  // 1+..+6
}

TEST(GridMpi, ConsecutiveCollectivesKeepOrder) {
  MpiFixture f({2, 2});
  std::map<std::int32_t, std::vector<std::int64_t>> got;
  f.world.on_world_ready = [&] {
    for (auto& [rank, comm] : f.world.by_rank) {
      comm->allreduce_sum(1, [&, rank = rank](std::int64_t t) {
        got[rank].push_back(t);
      });
      comm->allreduce_sum(10, [&, rank = rank](std::int64_t t) {
        got[rank].push_back(t);
      });
    }
  };
  f.g->grid->run();
  for (auto& [rank, results] : got) {
    EXPECT_EQ(results, (std::vector<std::int64_t>{4, 40})) << rank;
  }
}

/// Parameterized layout sweep: bootstrap works for any subjob structure.
class GridMpiLayoutSweep
    : public ::testing::TestWithParam<std::vector<std::int32_t>> {};

TEST_P(GridMpiLayoutSweep, WorldFormsAndReduces) {
  MpiFixture f(GetParam());
  const auto total = std::accumulate(GetParam().begin(), GetParam().end(), 0);
  std::map<std::int32_t, std::int64_t> got;
  f.world.on_world_ready = [&] {
    for (auto& [rank, comm] : f.world.by_rank) {
      comm->allreduce_sum(1, [&, rank = rank](std::int64_t t) {
        got[rank] = t;
      });
    }
  };
  f.g->grid->run();
  ASSERT_EQ(f.world.ready, total);
  for (auto& [rank, t] : got) EXPECT_EQ(t, total);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, GridMpiLayoutSweep,
    ::testing::Values(std::vector<std::int32_t>{1},
                      std::vector<std::int32_t>{4},
                      std::vector<std::int32_t>{1, 1},
                      std::vector<std::int32_t>{8, 1},
                      std::vector<std::int32_t>{1, 8},
                      std::vector<std::int32_t>{3, 3, 3},
                      std::vector<std::int32_t>{5, 1, 2, 7},
                      std::vector<std::int32_t>{2, 2, 2, 2, 2, 2}));

}  // namespace
}  // namespace grid
