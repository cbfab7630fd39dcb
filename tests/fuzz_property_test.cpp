// Additional property sweeps: randomized edit-operation sequences on the
// live mechanism layer, randomized gridmpi traffic, and co-allocation
// under jittered network latency.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <utility>

#include "config/gridmpi.hpp"
#include "core/app_barrier.hpp"
#include "test_util.hpp"

namespace grid {
namespace {

using test::Outcome;
using test::SmallGrid;

// ---- live request randomized pre-commit edits ----------------------------------

class LiveEditFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LiveEditFuzz, RandomEditsThenCommitAlwaysResolves) {
  for (std::uint64_t sub = 0; sub < 4; ++sub) {
    const std::uint64_t seed = GetParam() * 100 + sub;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::Rng rng(seed);
    SmallGrid g(4, testbed::CostModel::fast(),
                app::StartupProfile{.init_delay = 2 * sim::kSecond,
                                    .init_jitter = 2 * sim::kSecond});
    core::RequestConfig config;
    config.startup_timeout = 5 * sim::kMinute;
    Outcome outcome;
    auto* req = g.coallocator->create_request(outcome.callbacks(), config);
    std::vector<core::SubjobHandle> handles;
    auto random_job = [&] {
      rsl::JobRequest j;
      j.resource_manager_contact =
          "host" + std::to_string(rng.uniform_int(1, 4));
      j.executable = "app";
      j.count = static_cast<std::int32_t>(rng.uniform_int(1, 8));
      j.start_type = rng.chance(0.5) ? rsl::SubjobStartType::kInteractive
                                     : rsl::SubjobStartType::kRequired;
      return j;
    };
    // Live subjobs (neither failed nor deleted) and their processes.
    auto live = [&] {
      std::pair<std::size_t, std::int32_t> totals{0, 0};
      for (core::SubjobHandle h = 1; h <= req->subjob_count(); ++h) {
        const auto b = req->subjob_brief(h).value();
        if (b.state == core::SubjobState::kFailed ||
            b.state == core::SubjobState::kDeleted) {
          continue;
        }
        ++totals.first;
        totals.second += b.count;
      }
      return totals;
    };
    for (int i = 0; i < 3; ++i) {
      auto added = req->add_subjob(random_job());
      ASSERT_TRUE(added.is_ok());
      handles.push_back(added.value());
    }
    req->start();
    // Random edits spread over the first seconds of the pipeline.
    for (int e = 0; e < 6; ++e) {
      const sim::Time at = rng.uniform_time(0, 3 * sim::kSecond);
      g.grid->engine().schedule_at(at, [&, e] {
        if (req->state() != core::RequestState::kEditing) return;
        sim::Rng op_rng(seed * 31 + static_cast<std::uint64_t>(e));
        const auto pick = op_rng.uniform_int(0, 2);
        if (pick == 0) {
          auto added = req->add_subjob(random_job());
          if (added.is_ok()) handles.push_back(added.value());
        } else if (pick == 1 && !handles.empty()) {
          req->remove_subjob(handles[static_cast<std::size_t>(
              op_rng.uniform_int(0, handles.size() - 1))]);
        } else if (!handles.empty()) {
          req->substitute_subjob(
              handles[static_cast<std::size_t>(
                  op_rng.uniform_int(0, handles.size() - 1))],
              random_job());
        }
      });
    }
    g.grid->engine().schedule_at(4 * sim::kSecond, [&] {
      if (req->state() == core::RequestState::kEditing && live().first > 0) {
        req->commit();
      } else if (req->state() == core::RequestState::kEditing) {
        req->abort("nothing left");
      }
    });
    g.grid->run_until(sim::kHour);
    // Always resolves; if released, the config covers every live subjob.
    EXPECT_NE(req->state(), core::RequestState::kEditing);
    EXPECT_NE(req->state(), core::RequestState::kCommitted);
    if (outcome.released) {
      EXPECT_EQ(outcome.config.total_processes, live().second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveEditFuzz,
                         ::testing::Range<std::uint64_t>(1, 7));

// ---- gridmpi randomized traffic --------------------------------------------------

struct FuzzWorld {
  std::map<std::int32_t, cfg::Communicator*> by_rank;
  int ready = 0;
  int expected = 0;
  std::function<void()> on_ready;
  void mark(cfg::Communicator* c) {
    by_rank[c->rank()] = c;
    if (++ready == expected && on_ready) on_ready();
  }
};

class FuzzMpiApp final : public gram::ProcessBehavior {
 public:
  explicit FuzzMpiApp(FuzzWorld* world) : world_(world) {}
  void start(gram::ProcessApi& api) override {
    api_ = &api;
    barrier_ = std::make_unique<core::BarrierClient>(api);
    barrier_->enter(true, "",
                    [this](const core::ReleaseView& release) {
                      comm_ = std::make_unique<cfg::Communicator>(
                          barrier_->endpoint(), release.info());
                      comm_->init([this] { world_->mark(comm_.get()); });
                    },
                    [this](const std::string&) { api_->exit(true, ""); });
  }
  void on_terminate() override {
    comm_.reset();
    barrier_.reset();
  }

 private:
  FuzzWorld* world_;
  gram::ProcessApi* api_ = nullptr;
  std::unique_ptr<core::BarrierClient> barrier_;
  std::unique_ptr<cfg::Communicator> comm_;
};

class GridMpiFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridMpiFuzz, RandomPointToPointTrafficAllDelivered) {
  sim::Rng rng(GetParam() * 1337);
  const int hosts = static_cast<int>(rng.uniform_int(2, 4));
  SmallGrid g(hosts);
  FuzzWorld world;
  g.grid->executables().install(
      "fuzzmpi", [&world] { return std::make_unique<FuzzMpiApp>(&world); });
  std::vector<std::string> subs;
  int total = 0;
  for (int i = 1; i <= hosts; ++i) {
    const int count = static_cast<int>(rng.uniform_int(1, 5));
    total += count;
    subs.push_back(testbed::rsl_subjob("host" + std::to_string(i), count,
                                       "fuzzmpi", "required"));
  }
  world.expected = total;
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  ASSERT_TRUE(req->add_rsl(testbed::rsl_multi(subs)).is_ok());
  req->commit();

  std::map<std::int32_t, std::int64_t> received_sum;
  std::map<std::int32_t, std::int64_t> expected_sum;
  int messages = 0;
  world.on_ready = [&] {
    for (auto& [rank, comm] : world.by_rank) {
      comm->recv(5, [&, rank = rank](std::int32_t, util::Reader& r) {
        received_sum[rank] += r.i64();
      });
    }
    // Random messages: every payload is accounted to its destination.
    for (int m = 0; m < 200; ++m) {
      const auto src =
          static_cast<std::int32_t>(rng.uniform_int(0, total - 1));
      const auto dst =
          static_cast<std::int32_t>(rng.uniform_int(0, total - 1));
      if (src == dst) continue;
      const std::int64_t value = rng.uniform_int(1, 1000);
      expected_sum[dst] += value;
      ++messages;
      util::Writer w;
      w.i64(value);
      world.by_rank[src]->send(dst, 5, w.take_bytes());
    }
  };
  g.grid->run();
  ASSERT_EQ(world.ready, total);
  EXPECT_GT(messages, 0);
  for (auto& [rank, sum] : expected_sum) {
    EXPECT_EQ(received_sum[rank], sum) << "rank " << rank;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridMpiFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---- jittered network --------------------------------------------------------------

class JitterSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JitterSweep, CoallocationSurvivesLatencyJitter) {
  SmallGrid g(3);
  g.grid->network().set_latency_model(std::make_unique<net::JitterLatency>(
      2 * sim::kMillisecond, 50 * sim::kMillisecond, sim::Rng(GetParam())));
  Outcome outcome;
  auto* req = g.coallocator->create_request(outcome.callbacks());
  req->add_rsl(g.rsl(8, "required"));
  req->commit();
  g.grid->run();
  EXPECT_TRUE(outcome.released);
  EXPECT_TRUE(outcome.status.is_ok());
  EXPECT_EQ(outcome.config.total_processes, 24);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitterSweep,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace grid
