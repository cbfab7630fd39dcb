#include "app/behaviors.hpp"

#include <memory>

namespace grid::app {

util::Samples BarrierStats::wait_samples() const {
  util::Samples s;
  for (const BarrierRecord& r : records) {
    const sim::Time w = r.wait();
    if (w >= 0) s.add(sim::to_seconds(w));
  }
  return s;
}

void BarrierStats::clear() { *this = BarrierStats{}; }

CoallocatedProcess::CoallocatedProcess(StartupProfile profile,
                                       BarrierStats* stats, sim::Rng rng)
    : profile_(profile), stats_(stats), rng_(rng) {}

CoallocatedProcess::~CoallocatedProcess() {
  // The behaviour can be destroyed with timers pending (exit from another
  // path, job termination); cancel them or they would fire into freed
  // memory.
  if (api_ != nullptr) {
    api_->engine().cancel(init_event_);
    api_->engine().cancel(run_event_);
  }
}

void CoallocatedProcess::start(gram::ProcessApi& api) {
  api_ = &api;
  FailureMode mode = FailureMode::kHealthy;
  const bool eligible =
      !profile_.failure_per_job || api.local_rank() == 0;
  if (eligible && profile_.failure_probability > 0.0 &&
      rng_.chance(profile_.failure_probability)) {
    mode = profile_.mode_on_chance;
  }
  sim::Time init = profile_.init_delay;
  if (profile_.init_jitter > 0) {
    init += rng_.uniform_time(0, profile_.init_jitter);
  }
  switch (mode) {
    case FailureMode::kHang:
      return;  // never checks in; the co-allocator's timeout decides
    case FailureMode::kCrashBeforeBarrier:
      init_event_ = api.engine().schedule_after(init, [this] {
        api_->exit(false, "process crashed during initialization");
      });
      return;
    case FailureMode::kFailedCheck:
      init_event_ = api.engine().schedule_after(init, [this] {
        enter_barrier(false, "application startup check failed");
      });
      return;
    case FailureMode::kHealthy:
      init_event_ = api.engine().schedule_after(
          init, [this] { enter_barrier(true, ""); });
      return;
  }
}

void CoallocatedProcess::enter_barrier(bool ok, const std::string& message) {
  barrier_.emplace(*api_);
  barrier_->set_checkin_resend(profile_.checkin_resend);
  if (!barrier_->configured()) {
    // Started directly under GRAM (no co-allocator): behave as a plain job.
    if (!ok) {
      api_->exit(false, message);
      return;
    }
    if (profile_.run_time > 0) {
      run_event_ = api_->engine().schedule_after(
          profile_.run_time, [this] { api_->exit(true, ""); });
    } else {
      api_->exit(true, "");
    }
    return;
  }
  if (stats_ != nullptr) {
    if (ok) {
      ++stats_->checkins_ok;
    } else {
      ++stats_->checkins_failed;
    }
  }
  barrier_->enter(
      ok, message,
      [this](const core::ReleaseView& release) {
        if (stats_ != nullptr) {
          ++stats_->releases;
          BarrierRecord rec;
          rec.subjob = barrier_->subjob();
          rec.rank = release.global_rank();
          rec.entered_at = barrier_->entered_at();
          rec.released_at = barrier_->released_at();
          stats_->records.push_back(rec);
        }
        if (profile_.run_time > 0) {
          run_event_ = api_->engine().schedule_after(profile_.run_time, [this] {
            if (stats_ != nullptr) ++stats_->completions;
            api_->exit(true, "");
          });
        } else {
          if (stats_ != nullptr) ++stats_->completions;
          api_->exit(true, "");
        }
      },
      [this](const std::string& /*reason*/) {
        if (stats_ != nullptr) ++stats_->aborts;
        api_->exit(true, "aborted by co-allocator");
      });
}

void CoallocatedProcess::on_terminate() {
  if (api_ != nullptr) {
    api_->engine().cancel(init_event_);
    api_->engine().cancel(run_event_);
  }
  barrier_.reset();  // detach the process endpoint
}

void install_app(gram::ExecutableRegistry& registry, const std::string& name,
                 StartupProfile profile, BarrierStats* stats,
                 std::uint64_t seed) {
  // Each spawned process gets an independent random stream derived from a
  // per-executable base, keeping whole experiments replayable.
  auto base = std::make_shared<sim::Rng>(seed);
  registry.install(name, [profile, stats, base]() {
    return std::make_unique<CoallocatedProcess>(profile, stats, base->fork());
  });
}

}  // namespace grid::app
