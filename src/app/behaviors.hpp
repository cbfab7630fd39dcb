// Application process behaviours for co-allocation experiments.
//
// Parameterizes the application half of the paper's protocol: local
// initialization delay and checks, the barrier call, the failure modes of
// §2's scenario (a process that reports a failed check, crashes before
// checking in, or simply never responds because its system is overloaded),
// and post-release run time.  A shared BarrierStats collector records the
// per-process timings the Figure 4 analysis needs (barrier wait blocks,
// minimum wait zero, average wait ~ half of total job latency).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/app_barrier.hpp"
#include "gram/process.hpp"
#include "simkit/rng.hpp"
#include "simkit/stats.hpp"

namespace grid::app {

/// What a process does when it starts.
enum class FailureMode : std::uint8_t {
  kHealthy = 0,        // init, check in ok, run, exit ok
  kFailedCheck,        // init, check in with ok=false (application verdict)
  kCrashBeforeBarrier, // exit(false) without ever checking in
  kHang,               // never checks in (overloaded system, §2's scenario)
};

struct StartupProfile {
  /// Local, side-effect-free initialization before the barrier call.
  sim::Time init_delay = 20 * sim::kMillisecond;
  /// Uniform jitter added to init_delay: [0, init_jitter].
  sim::Time init_jitter = 0;
  /// Post-release computation time; 0 exits immediately after release.
  sim::Time run_time = 0;
  /// With probability `failure_probability`, a process behaves as
  /// `mode_on_chance` instead of kHealthy (stochastic failures for the
  /// scenario benches; 1.0 selects it without drawing from the RNG).
  double failure_probability = 0.0;
  FailureMode mode_on_chance = FailureMode::kHang;
  /// When true the stochastic failure applies only to local rank 0, making
  /// `failure_probability` a *per-subjob* (per-machine) failure rate — the
  /// paper's failure unit — rather than per-process.
  bool failure_per_job = false;
  /// When > 0 the barrier check-in is re-sent on this period until release
  /// or abort (BarrierClient::set_checkin_resend), protecting the one
  /// unacknowledged protocol step against message loss.  Default off so
  /// loss-free experiments keep their exact message counts.
  sim::Time checkin_resend = 0;
};

/// One process's recorded barrier timings.
struct BarrierRecord {
  std::uint64_t subjob = 0;  // SubjobHandle, 0 if unconfigured
  std::int32_t rank = 0;
  sim::Time entered_at = -1;
  sim::Time released_at = -1;
  sim::Time wait() const {
    return (entered_at >= 0 && released_at >= 0) ? released_at - entered_at
                                                 : -1;
  }
};

/// Shared collector; one per experiment.
struct BarrierStats {
  std::vector<BarrierRecord> records;
  std::int64_t checkins_ok = 0;
  std::int64_t checkins_failed = 0;
  std::int64_t releases = 0;
  std::int64_t aborts = 0;
  std::int64_t completions = 0;

  util::Samples wait_samples() const;
  void clear();
};

/// The standard co-allocated process: implements the behaviour selected by
/// its StartupProfile.
class CoallocatedProcess final : public gram::ProcessBehavior {
 public:
  CoallocatedProcess(StartupProfile profile, BarrierStats* stats,
                     sim::Rng rng);
  ~CoallocatedProcess() override;

  void start(gram::ProcessApi& api) override;
  void on_terminate() override;

 private:
  void enter_barrier(bool ok, const std::string& message);

  StartupProfile profile_;
  BarrierStats* stats_;
  sim::Rng rng_;
  gram::ProcessApi* api_ = nullptr;
  std::optional<core::BarrierClient> barrier_;
  sim::EventId init_event_;
  sim::EventId run_event_;
};

/// Installs an executable that spawns CoallocatedProcess instances.
/// `stats` may be nullptr; `seed` derives per-process RNG streams.
void install_app(gram::ExecutableRegistry& registry, const std::string& name,
                 StartupProfile profile, BarrierStats* stats,
                 std::uint64_t seed = 0x5eed);

}  // namespace grid::app
