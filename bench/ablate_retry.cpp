// Ablation — fault-tolerance stack (RPC retries + check-in re-send +
// heartbeat detection) vs. a bare stack, DUROC ensembles under message loss.
//
// The paper's co-allocation layer has to live on an unreliable substrate:
// "the GRAM API is designed so that every operation can fail" (§2).  The
// seed implementation surfaced every lost message as a kTimeout and gave
// the request one chance per RPC; this bench measures what the retry layer
// buys.  Experiment: a 4-subjob DUROC ensemble (required + interactive +
// 2 optional) starts up while the network drops each message i.i.d. with
// probability p.  The baseline issues every RPC and check-in exactly once;
// the fault-tolerant configuration arms gram-level retries with backoff,
// periodic barrier check-in re-send, and a heartbeat failure detector.
// Metric: fraction of seeds whose ensemble reaches release (the
// co-allocation succeeded), and mean virtual time to release.  Every trial is replayed
// with the same seed to demonstrate determinism.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "app/behaviors.hpp"
#include "core/coallocator.hpp"
#include "core/monitor.hpp"
#include "simkit/stats.hpp"
#include "simkit/trialpool.hpp"
#include "testbed/grid.hpp"
#include "testbed/report.hpp"

using namespace grid;

namespace {

constexpr int kMachines = 4;
constexpr int kTrials = 20;
const sim::Time kStartupTimeout = 2 * sim::kMinute;
const sim::Time kHorizon = 10 * sim::kMinute;

struct TrialResult {
  bool ok = false;           // terminal status was OK
  bool released = false;     // barrier released
  double release_s = -1.0;   // virtual seconds to release
  double finish_s = -1.0;    // virtual seconds to the terminal callback
  std::uint64_t retries = 0;
  std::uint64_t verdicts = 0;

  bool operator==(const TrialResult&) const = default;
};

core::HeartbeatConfig bench_heartbeats() {
  core::HeartbeatConfig config;
  config.interval = 2 * sim::kSecond;
  config.beat_timeout = sim::kSecond;
  // Five consecutive losses at p=0.1 per direction is ~1e-5 per window:
  // the detector is tuned to ambient loss so it only convicts real deaths.
  config.misses_to_dead = 5;
  return config;
}

TrialResult run_trial(bool fault_tolerant, double loss, std::uint64_t seed) {
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
  if (fault_tolerant) profile.checkin_resend = 2 * sim::kSecond;
  app::install_app(grid.executables(), "sim", profile, &stats, seed * 7 + 1);

  core::RequestConfig defaults;
  defaults.rpc_timeout = 5 * sim::kSecond;
  defaults.startup_timeout = kStartupTimeout;
  auto mech = grid.make_coallocator("agent", "/CN=ablate", defaults);
  if (fault_tolerant) {
    mech->gram().set_retry_policy(net::RetryPolicy{.jitter_seed = seed});
  }
  grid.network().set_drop_probability(loss);

  TrialResult out;
  core::RequestCallbacks cbs;
  cbs.on_released = [&](const core::RuntimeConfig&) {
    out.released = true;
    out.release_s = sim::to_seconds(grid.engine().now());
  };
  cbs.on_terminal = [&](const util::Status& status) {
    out.ok = status.is_ok();
    out.finish_s = sim::to_seconds(grid.engine().now());
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
  std::unique_ptr<core::HeartbeatDetector> detector;
  if (fault_tolerant) {
    detector = std::make_unique<core::HeartbeatDetector>(*mech, req->id(),
                                                         bench_heartbeats());
    detector->start();
  }

  grid.run_until(kHorizon);
  if (out.finish_s < 0.0) {
    // Lost state callbacks can leave the request waiting forever; the
    // control operation must still produce the terminal.
    req->kill();
    grid.run_until(kHorizon + kStartupTimeout);
  }
  out.retries = grid.network().stats().rpc_retries;
  if (detector) out.verdicts = detector->verdicts();
  return out;
}

/// Both arms of one seed, plus the serial replays that prove determinism.
struct SeedPair {
  TrialResult base;
  TrialResult ft;
  bool replays_identically = false;

  bool operator==(const SeedPair&) const = default;
};

SeedPair run_seed_pair(double loss, std::uint64_t seed) {
  SeedPair pair;
  pair.base = run_trial(false, loss, seed);
  pair.ft = run_trial(true, loss, seed);
  pair.replays_identically = run_trial(false, loss, seed) == pair.base &&
                             run_trial(true, loss, seed) == pair.ft;
  return pair;
}

}  // namespace

int main() {
  testbed::print_heading(
      "Ablation: RPC retries + check-in re-send + heartbeats vs. bare "
      "stack, 4-subjob DUROC ensemble under i.i.d. message loss");
  testbed::Table table({"loss_prob", "bare_released", "ft_released", "bare_release_s",
                        "ft_release_s", "ft_retries"});
  bool ft_never_worse = true;
  bool ft_wins_at_5pct = false;
  bool deterministic = true;
  sim::TrialPool pool;
  for (double loss : {0.0, 0.02, 0.05, 0.10}) {
    int base_ok = 0, ft_ok = 0;
    util::Accumulator base_time, ft_time, retries;
    // Every seed is an isolated world, so the ensemble fans out across the
    // pool; results come back in seed order, keeping the report and the
    // determinism verdict byte-identical to the serial loop.
    const std::vector<SeedPair> pairs = pool.map<SeedPair>(
        kTrials, [loss](std::size_t t) {
          return run_seed_pair(loss, 4200 + static_cast<std::uint64_t>(t));
        });
    for (int t = 0; t < kTrials; ++t) {
      const std::uint64_t seed = 4200 + static_cast<std::uint64_t>(t);
      const SeedPair& pair = pairs[static_cast<std::size_t>(t)];
      const TrialResult& base = pair.base;
      const TrialResult& ft = pair.ft;
      if (std::getenv("ABLATE_DEBUG") != nullptr) {
        std::printf(
            "loss=%.2f seed=%llu base{ok=%d rel=%d rel_s=%.2f fin_s=%.2f} "
            "ft{ok=%d rel=%d rel_s=%.2f fin_s=%.2f retries=%llu "
            "verdicts=%llu}\n",
            loss, static_cast<unsigned long long>(seed), base.ok,
            base.released, base.release_s, base.finish_s, ft.ok, ft.released,
            ft.release_s, ft.finish_s,
            static_cast<unsigned long long>(ft.retries),
            static_cast<unsigned long long>(ft.verdicts));
      }
      if (!pair.replays_identically) deterministic = false;
      if (base.released) ++base_ok;
      if (ft.released) ++ft_ok;
      if (base.released) base_time.add(base.release_s);
      if (ft.released) ft_time.add(ft.release_s);
      retries.add(static_cast<double>(ft.retries));
    }
    if (ft_ok < base_ok) ft_never_worse = false;
    if (loss == 0.05 && ft_ok > base_ok) ft_wins_at_5pct = true;
    table.add_row({testbed::Table::num(loss, 2),
                   testbed::Table::num(static_cast<double>(base_ok) / kTrials,
                                       2),
                   testbed::Table::num(static_cast<double>(ft_ok) / kTrials,
                                       2),
                   testbed::Table::num(base_time.mean(), 2),
                   testbed::Table::num(ft_time.mean(), 2),
                   testbed::Table::num(retries.mean(), 1)});
  }
  testbed::print_table(table);
  std::printf(
      "\nshape check: the fault-tolerant stack is never worse and strictly\n"
      "improves ensemble success at 5%% loss: %s\n"
      "determinism check: every trial replayed bit-identically per seed: "
      "%s\n",
      (ft_never_worse && ft_wins_at_5pct) ? "HOLDS" : "VIOLATED",
      deterministic ? "HOLDS" : "VIOLATED");
  return (ft_never_worse && ft_wins_at_5pct && deterministic) ? 0 : 1;
}
