// Property tests: co-allocation protocol invariants under randomized
// workloads and failure injection.
//
// Each trial builds a random grid (host count, subjob sizes, start types,
// per-process failure modes, host crashes) and runs a committed DUROC
// request to quiescence, then checks the §3.2 safety properties:
//
//   P1  the request always resolves: RELEASED / DONE / ABORTED, never stuck
//       in COMMITTED once a startup timeout is configured;
//   P2  if the barrier released, every subjob in the configuration was
//       fully checked in, rank bases are contiguous, and every live
//       non-optional subjob is present;
//   P3  if a required subjob failed before release, the request aborted
//       and no process ever escaped the barrier;
//   P4  process accounting is conservative (releases never exceed
//       successful check-ins; every released process belongs to the final
//       configuration);
//   P5  the simulation is deterministic: re-running the same seed gives
//       identical outcomes and virtual end times.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "test_util.hpp"

namespace grid {
namespace {

using core::RequestState;
using core::SubjobState;

struct TrialResult {
  RequestState state = RequestState::kEditing;
  bool released = false;
  util::Status status;
  core::RuntimeConfig config;
  sim::Time end_time = 0;
  std::int64_t releases = 0;
  std::int64_t checkins_ok = 0;
  std::int64_t aborts = 0;
  bool required_failed_pre_release = false;
  std::vector<std::pair<core::SubjobHandle,
                        core::CoallocationRequest::SubjobBrief>>
      views;
};

TrialResult run_trial(std::uint64_t seed) {
  sim::Rng rng(seed);
  const int hosts = static_cast<int>(rng.uniform_int(2, 6));

  testbed::Grid grid(testbed::CostModel::fast(), seed);
  app::BarrierStats stats;
  for (int i = 1; i <= hosts; ++i) {
    grid.add_host("host" + std::to_string(i), 64);
  }
  // Install one executable per failure mix; processes draw their mode.
  for (int i = 1; i <= hosts; ++i) {
    app::StartupProfile profile;
    profile.init_delay = rng.uniform_time(0, 2 * sim::kSecond);
    profile.init_jitter = rng.uniform_time(0, sim::kSecond);
    profile.run_time = rng.uniform_time(0, 2 * sim::kSecond);
    profile.failure_probability = rng.chance(0.5) ? rng.uniform(0.0, 0.3) : 0;
    profile.mode_on_chance = static_cast<app::FailureMode>(
        rng.uniform_int(1, 3));  // failcheck / crash / hang
    app::install_app(grid.executables(), "app" + std::to_string(i), profile,
                     &stats, seed * 131 + static_cast<std::uint64_t>(i));
  }
  auto coallocator = grid.make_coallocator("agent", "/CN=prop");
  core::RequestConfig config;
  config.startup_timeout = 2 * sim::kMinute;
  config.rpc_timeout = 10 * sim::kSecond;

  TrialResult result;
  core::RequestCallbacks cbs;
  cbs.on_released = [&](const core::RuntimeConfig& c) {
    result.released = true;
    result.config = c;
  };
  cbs.on_terminal = [&](const util::Status& s) { result.status = s; };
  auto* req = coallocator->create_request(cbs, config);

  std::vector<core::SubjobHandle> handles;
  cbs.on_subjob = nullptr;
  const int subjobs = static_cast<int>(rng.uniform_int(1, hosts));
  for (int i = 0; i < subjobs; ++i) {
    rsl::JobRequest j;
    const int host = static_cast<int>(rng.uniform_int(1, hosts));
    j.resource_manager_contact = "host" + std::to_string(host);
    j.executable = "app" + std::to_string(host);
    j.count = static_cast<std::int32_t>(rng.uniform_int(1, 8));
    j.start_type = static_cast<rsl::SubjobStartType>(rng.uniform_int(0, 2));
    auto added = req->add_subjob(std::move(j));
    if (added.is_ok()) handles.push_back(added.value());
  }
  // Occasionally crash a host mid-allocation.
  if (rng.chance(0.3)) {
    const int victim = static_cast<int>(rng.uniform_int(1, hosts));
    const sim::Time at = rng.uniform_time(0, 10 * sim::kSecond);
    grid.engine().schedule_at(at, [&grid, victim] {
      grid.host("host" + std::to_string(victim))->crash();
    });
  }
  req->commit();
  grid.run_until(sim::kHour);  // generous cap; everything resolves earlier

  // Detect "required failed before release".
  for (core::SubjobHandle h : handles) {
    auto view = req->subjob_brief(h);
    if (!view.is_ok()) continue;
    result.views.emplace_back(h, view.value());
    if (view.value().start_type == rsl::SubjobStartType::kRequired &&
        view.value().state == SubjobState::kFailed && !result.released) {
      result.required_failed_pre_release = true;
    }
  }
  result.state = req->state();
  result.end_time = grid.engine().now();
  result.releases = stats.releases;
  result.checkins_ok = stats.checkins_ok;
  result.aborts = stats.aborts;
  return result;
}

class CoallocationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoallocationProperty, InvariantsHoldUnderRandomFailures) {
  for (std::uint64_t sub = 0; sub < 8; ++sub) {
    const std::uint64_t seed = GetParam() * 1000 + sub;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const TrialResult r = run_trial(seed);

    // P1: resolution.  Once committed with a startup timeout, the request
    // cannot be stuck waiting on the barrier.
    EXPECT_NE(r.state, RequestState::kEditing);
    EXPECT_NE(r.state, RequestState::kCommitted);

    if (r.released) {
      // P2: configuration integrity.
      std::int32_t expected_base = 0;
      for (const auto& layout : r.config.subjobs) {
        EXPECT_EQ(layout.rank_base, expected_base);
        expected_base += layout.size;
        EXPECT_GT(layout.size, 0);
        EXPECT_NE(layout.leader, net::kInvalidNode);
      }
      EXPECT_EQ(r.config.total_processes, expected_base);
      for (const auto& [handle, v] : r.views) {
        if (v.start_type == rsl::SubjobStartType::kOptional) continue;
        if (v.state == SubjobState::kFailed ||
            v.state == SubjobState::kDeleted) {
          continue;
        }
        bool in_config = false;
        for (const auto& layout : r.config.subjobs) {
          if (layout.subjob == handle) in_config = true;
        }
        EXPECT_TRUE(in_config)
            << "live non-optional subjob missing from configuration";
      }
    } else {
      // P3: atomicity of failure before release.
      EXPECT_EQ(r.releases, 0);
      EXPECT_EQ(r.state, RequestState::kAborted);
    }
    if (r.required_failed_pre_release) {
      EXPECT_EQ(r.state, RequestState::kAborted);
      EXPECT_FALSE(r.released);
    }

    // P4: accounting.
    EXPECT_LE(r.releases, r.checkins_ok);

    // P5: determinism.
    const TrialResult again = run_trial(seed);
    EXPECT_EQ(again.state, r.state);
    EXPECT_EQ(again.released, r.released);
    EXPECT_EQ(again.end_time, r.end_time);
    EXPECT_EQ(again.releases, r.releases);
    EXPECT_EQ(again.checkins_ok, r.checkins_ok);
    EXPECT_EQ(again.config.total_processes, r.config.total_processes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoallocationProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- GRAB atomicity ------------------------------------------------------------

/// P6 (GRAB): atomic transactions are all-or-nothing.  If the allocation
/// starts, the released configuration contains *every* subjob of the
/// original request at full size; if anything failed, nothing is released
/// and all processes are reaped.
class GrabAtomicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GrabAtomicity, AllOrNothingUnderRandomFailures) {
  for (std::uint64_t sub = 0; sub < 8; ++sub) {
    const std::uint64_t seed = GetParam() * 500 + sub;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::Rng rng(seed);
    const int hosts = static_cast<int>(rng.uniform_int(2, 5));
    testbed::Grid grid(testbed::CostModel::fast(), seed);
    app::BarrierStats stats;
    for (int i = 1; i <= hosts; ++i) {
      grid.add_host("host" + std::to_string(i), 64);
    }
    app::StartupProfile profile;
    profile.init_delay = rng.uniform_time(0, sim::kSecond);
    profile.failure_probability = rng.uniform(0.0, 0.4);
    profile.failure_per_job = true;
    profile.mode_on_chance = static_cast<app::FailureMode>(
        rng.uniform_int(1, 3));
    app::install_app(grid.executables(), "app", profile, &stats, seed * 3);
    auto mech = grid.make_coallocator("grab", "/CN=atomic");
    core::GrabAllocator grab(*mech);
    core::RequestConfig config;
    config.startup_timeout = 2 * sim::kMinute;
    std::vector<rsl::JobRequest> subjobs;
    std::int32_t requested = 0;
    const int n = static_cast<int>(rng.uniform_int(1, hosts));
    for (int i = 0; i < n; ++i) {
      rsl::JobRequest j;
      j.resource_manager_contact =
          "host" + std::to_string(rng.uniform_int(1, hosts));
      j.executable = "app";
      j.count = static_cast<std::int32_t>(rng.uniform_int(1, 8));
      requested += j.count;
      subjobs.push_back(std::move(j));
    }
    bool started = false;
    util::Status done(util::ErrorCode::kInternal, "unset");
    std::int32_t released_processes = -1;
    auto id = grab.allocate(
        std::move(subjobs),
        {.on_subjob = nullptr,
         .on_released =
             [&](const core::RuntimeConfig& c) {
               started = true;
               released_processes = c.total_processes;
             },
         .on_terminal = [&](const util::Status& s) { done = s; }},
        config);
    ASSERT_TRUE(id.is_ok());
    grid.run_until(sim::kHour);
    if (started) {
      // All: every requested processor is in the released configuration.
      EXPECT_EQ(released_processes, requested);
      EXPECT_EQ(stats.releases, requested);
    } else {
      // Nothing: the transaction rolled back completely.
      EXPECT_EQ(done.code(), util::ErrorCode::kAborted);
      EXPECT_EQ(stats.releases, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrabAtomicity,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace grid
