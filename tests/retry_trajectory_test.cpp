// Pins the trajectory of the retry stack under message loss.
//
// bench/ablate_retry prints only two-decimal means, which a small timing
// shift in a retried handshake or cancel would slip past.  This test runs
// the bench's fault-tolerant trial (4 machines, a GRAM retry policy,
// barrier check-in re-send and heartbeats) for its 20 seeds at three loss
// rates and folds the exact trajectory of every trial into one digest:
// release and terminal instants in nanoseconds, RPC re-issues, heartbeat
// verdicts, events executed, and messages and bytes sent.  The digest is
// committed, so a refactor of the retry code that moves any trial by one
// nanosecond or one message fails here.  It is computed serially and on a
// 4-worker TrialPool: retry state shared between trials (a ticket or
// jitter-stream counter) would make the two disagree.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "app/behaviors.hpp"
#include "core/coallocator.hpp"
#include "core/monitor.hpp"
#include "simkit/trialpool.hpp"
#include "testbed/grid.hpp"

namespace grid {
namespace {

constexpr int kMachines = 4;
constexpr int kSeeds = 20;
constexpr std::uint64_t kFirstSeed = 4200;
constexpr double kLosses[] = {0.02, 0.05, 0.10};
const sim::Time kStartupTimeout = 2 * sim::kMinute;
const sim::Time kHorizon = 10 * sim::kMinute;

struct Trajectory {
  sim::Time released_at = -1;
  sim::Time terminal_at = -1;
  std::uint64_t rpc_retries = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t events = 0;
  std::uint64_t sent = 0;
  std::uint64_t bytes_sent = 0;
};

/// ablate_retry's fault-tolerant arm, recording exact instants and counts.
Trajectory run_trial(double loss, std::uint64_t seed) {
  testbed::Grid grid(testbed::CostModel::paper(), seed);
  std::vector<std::string> sites;
  for (int i = 1; i <= kMachines; ++i) {
    sites.push_back("site" + std::to_string(i));
    grid.add_host(sites.back(), 16);
  }
  app::BarrierStats stats;
  app::StartupProfile profile;
  profile.init_delay = 50 * sim::kMillisecond;
  profile.init_jitter = 100 * sim::kMillisecond;
  profile.run_time = 30 * sim::kSecond;
  profile.checkin_resend = 2 * sim::kSecond;
  app::install_app(grid.executables(), "sim", profile, &stats, seed * 7 + 1);

  core::RequestConfig defaults;
  defaults.rpc_timeout = 5 * sim::kSecond;
  defaults.startup_timeout = kStartupTimeout;
  auto mech = grid.make_coallocator("agent", "/CN=ablate", defaults);
  mech->gram().set_retry_policy(net::RetryPolicy{.jitter_seed = seed});
  grid.network().set_drop_probability(loss);

  Trajectory out;
  core::RequestCallbacks cbs;
  cbs.on_released = [&](const core::RuntimeConfig&) {
    out.released_at = grid.engine().now();
  };
  cbs.on_terminal = [&](const util::Status&) {
    out.terminal_at = grid.engine().now();
  };
  core::CoallocationRequest* req = mech->create_request(std::move(cbs));
  const char* kinds[] = {"required", "interactive", "optional", "optional"};
  std::vector<std::string> subs;
  for (int i = 0; i < kMachines; ++i) {
    subs.push_back(testbed::rsl_subjob(sites[i], 4, "sim", kinds[i]));
  }
  if (!req->add_rsl(testbed::rsl_multi(subs)).is_ok()) return out;
  req->start();
  if (!req->commit().is_ok()) return out;
  core::HeartbeatConfig beats;
  beats.interval = 2 * sim::kSecond;
  beats.beat_timeout = sim::kSecond;
  beats.misses_to_dead = 5;
  core::HeartbeatDetector detector(*mech, req->id(), beats);
  detector.start();

  grid.run_until(kHorizon);
  if (out.terminal_at < 0) {
    req->kill();
    grid.run_until(kHorizon + kStartupTimeout);
  }
  out.rpc_retries = grid.network().stats().rpc_retries;
  out.verdicts = detector.verdicts();
  out.events = grid.engine().executed();
  out.sent = grid.network().stats().sent;
  out.bytes_sent = grid.network().stats().bytes_sent;
  return out;
}

/// FNV-1a over the little-endian bytes of each value.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const Trajectory& t) {
    add(static_cast<std::uint64_t>(t.released_at));
    add(static_cast<std::uint64_t>(t.terminal_at));
    add(t.rpc_retries);
    add(t.verdicts);
    add(t.events);
    add(t.sent);
    add(t.bytes_sent);
  }
};

constexpr std::size_t kTrials = std::size(kLosses) * kSeeds;

Trajectory trial(std::size_t i) {
  return run_trial(kLosses[i / kSeeds], kFirstSeed + i % kSeeds);
}

std::uint64_t digest_of(const std::vector<Trajectory>& trials) {
  Digest d;
  for (const Trajectory& t : trials) d.add(t);
  return d.h;
}

TEST(RetryTrajectory, FaultTolerantTrialsMatchThePinnedDigest) {
  std::vector<Trajectory> serial;
  for (std::size_t i = 0; i < kTrials; ++i) serial.push_back(trial(i));
  sim::TrialPool pool(4);
  const std::vector<Trajectory> parallel =
      pool.map<Trajectory>(kTrials, [](std::size_t i) { return trial(i); });

  EXPECT_EQ(digest_of(serial), digest_of(parallel));
  EXPECT_EQ(digest_of(serial), 0xc76c2691d3587f00ULL);

  // The trials exercise what the digest is meant to hold: re-issued
  // cancels and trials that never reach release.
  std::uint64_t retries = 0;
  int unreleased = 0;
  for (const Trajectory& t : serial) {
    retries += t.rpc_retries;
    if (t.released_at < 0) ++unreleased;
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(unreleased, 0);
}

}  // namespace
}  // namespace grid
