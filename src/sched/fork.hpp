// Fork scheduler: queue-less, timeshared process creation.
//
// Reproduces the configuration of the paper's microbenchmarks (§4.2):
// "GRAM was configured to respond to allocation requests by immediately
// 'forking' the requested number of processes."  Start delay is the
// per-process fork cost times the process count (Figure 3: ~1 ms for one
// process); there is no capacity limit because the host timeshares.
#pragma once

#include "sched/scheduler.hpp"
#include "simkit/idmap.hpp"

namespace grid::sched {

class ForkScheduler final : public LocalScheduler {
 public:
  /// `nominal_processors` is the advertised machine size (information
  /// service / broker view); the timeshared scheduler does not enforce it.
  ForkScheduler(sim::Engine& engine, sim::Time fork_cost_per_process,
                std::int32_t nominal_processors = 0);

  util::Status submit(const JobDescriptor& job, StartFn on_start,
                      EndFn on_end) override;
  void complete(JobId id) override;
  bool cancel(JobId id) override;

  std::int32_t total_processors() const override {
    return nominal_ > 0 ? nominal_ : running_count_;
  }
  std::int32_t busy_processors() const override { return running_count_; }
  std::size_t queue_length() const override { return 0; }
  QueueSnapshot snapshot() const override;
  QueueSummary summary() const override;
  std::uint64_t version() const override { return version_; }
  std::string policy() const override { return "fork"; }

 private:
  struct Running {
    JobDescriptor desc;
    EndFn on_end;
    sim::EventId start_event;
    RunTimers timers;
    bool started = false;
  };

  void start_job(JobId id, StartFn on_start);
  void end_job(JobId id, EndReason reason);

  sim::Engine* engine_;
  sim::Time fork_cost_;
  std::int32_t nominal_;
  sim::IdSlab<Running> jobs_;
  std::int32_t running_count_ = 0;
  std::uint64_t version_ = 1;  // dirty-flag counter (0 = untracked)
};

}  // namespace grid::sched
