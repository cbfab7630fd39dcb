#include "gram/jobmanager.hpp"

#include "gram/gatekeeper.hpp"
#include "gram/protocol.hpp"
#include "sched/reservation.hpp"
#include "simkit/check.hpp"

namespace grid::gram {

/// One simulated process: adapts ProcessApi onto the job manager.
class JobManager::Process final : public ProcessApi {
 public:
  Process(JobManager& owner, std::int32_t rank)
      : owner_(&owner), rank_(rank) {}

  util::Status exec() {
    auto behavior = owner_->registry_->create(owner_->request_.executable);
    if (!behavior.is_ok()) return behavior.status();
    behavior_ = behavior.take();
    behavior_->start(*this);
    return util::Status::ok();
  }

  void terminate() {
    if (behavior_ == nullptr) return;
    std::unique_ptr<ProcessBehavior> b = std::move(behavior_);
    b->on_terminate();
    // Defer destruction past the current event: the kill may have been
    // triggered from a callback whose owner lives inside the behaviour.
    defer_teardown(std::move(b));
  }

  bool alive() const { return behavior_ != nullptr; }

  // ---- ProcessApi --------------------------------------------------------

  sim::Engine& engine() override { return owner_->endpoint_->engine(); }
  net::Network& network() override { return owner_->endpoint_->network(); }
  JobId job() const override { return owner_->id_; }
  const std::string& host_name() const override {
    return owner_->endpoint_->name();
  }
  std::int32_t local_rank() const override { return rank_; }
  std::int32_t local_count() const override { return owner_->request_.count; }
  const std::vector<std::string>& arguments() const override {
    return owner_->request_.arguments;
  }
  std::string getenv(std::string_view name) const override {
    for (const auto& [k, v] : owner_->request_.environment) {
      if (k == name) return v;
    }
    return "";
  }
  void exit(bool ok, std::string message) override {
    if (behavior_ == nullptr) return;  // already terminated
    // exit() is almost always called from one of the behaviour's own
    // callbacks (network handler or timer); destroying it synchronously
    // would free objects still on the call stack, so defer.
    defer_teardown(std::move(behavior_));
    owner_->on_process_exit(rank_, ok, message);
  }

 private:
  /// Destroys the behaviour in a zero-delay event.  Its destructor may
  /// still call back into this ProcessApi (cancelling its timers), which is
  /// why the gatekeeper reaps a job only after its terminal instant.
  void defer_teardown(std::unique_ptr<ProcessBehavior> b) {
    engine().schedule_after(0, [b = std::move(b)]() mutable { b.reset(); });
  }

  JobManager* owner_;
  std::int32_t rank_;
  std::unique_ptr<ProcessBehavior> behavior_;
};

JobManager::JobManager(Gatekeeper& gatekeeper, JobId id,
                       rsl::JobRequest request, net::NodeId callback_contact)
    : gatekeeper_(&gatekeeper),
      endpoint_(&gatekeeper.endpoint()),
      scheduler_(&gatekeeper.scheduler()),
      registry_(gatekeeper.registry_),
      id_(id),
      request_(std::move(request)),
      callback_contact_(callback_contact) {}

JobManager::~JobManager() = default;

util::Status JobManager::start() {
  sched::JobDescriptor desc;
  desc.id = id_;
  desc.count = request_.count;
  desc.max_wall_time =
      request_.max_wall_time.has_value() ? *request_.max_wall_time : 0;
  // The scheduler may call back long after this manager is reaped (a
  // crashed host's job stays queued or running), so its callbacks find the
  // manager by id; a reaped job is terminal, where both are no-ops anyway.
  Gatekeeper* gk = gatekeeper_;
  const JobId id = id_;
  auto on_start = [gk, id](sched::JobId) {
    if (JobManager* m = gk->live_job(id)) m->on_scheduler_start();
  };
  auto on_end = [gk, id](sched::JobId, sched::EndReason reason) {
    if (JobManager* m = gk->live_job(id)) m->on_scheduler_end(reason);
  };
  util::Status status;
  if (request_.reservation_id != 0) {
    // The job is bound to an advance reservation (paper §5): it starts at
    // the window, inside reserved capacity.
    auto* reserver = dynamic_cast<sched::ReservationScheduler*>(scheduler_);
    if (reserver == nullptr) {
      return {util::ErrorCode::kFailedPrecondition,
              "resource manager does not support advance reservations"};
    }
    status = reserver->submit_reserved(desc, request_.reservation_id,
                                       on_start, on_end);
  } else {
    status = scheduler_->submit(desc, on_start, on_end);
  }
  if (!status.is_ok()) return status;
  scheduler_job_live_ = true;
  transition(JobState::kPending);
  return util::Status::ok();
}

void JobManager::on_scheduler_start() {
  if (is_terminal(state_)) return;
  // Processors are allocated; loading and exec'ing the executable takes
  // exec_startup before the processes are really running (ACTIVE).
  const sim::Time exec_startup = gatekeeper_->costs_.exec_startup;
  if (exec_startup > 0) {
    // Like the scheduler callbacks, the event finds the manager by id: a
    // job cancelled during exec startup may be reaped before it fires.
    endpoint_->engine().schedule_after(
        exec_startup, [gk = gatekeeper_, id = id_] {
          if (JobManager* m = gk->live_job(id)) m->exec_processes();
        });
    return;
  }
  exec_processes();
}

void JobManager::exec_processes() {
  if (is_terminal(state_)) return;
  // Exec one process per allocated processor.  Behaviours hold their
  // ProcessApi by reference, so the vector is sized once and never grows.
  GRID_CHECK(processes_.empty(), "a job's processes are exec'd once");
  processes_.reserve(static_cast<std::size_t>(request_.count));
  for (std::int32_t rank = 0; rank < request_.count; ++rank) {
    processes_.emplace_back(*this, rank);
  }
  live_ = request_.count;
  transition(JobState::kActive);
  for (Process& p : processes_) {
    if (is_terminal(state_)) break;
    // Executable missing or broken: the job fails at exec time.
    if (auto st = p.exec(); !st.is_ok()) fail(st.code(), st.message());
  }
}

void JobManager::on_process_exit(std::int32_t rank, bool ok,
                                 const std::string& message) {
  if (is_terminal(state_)) return;
  --live_;
  if (!ok) {
    fail(util::ErrorCode::kInternal,
         "process " + std::to_string(rank) + " failed: " + message);
    return;
  }
  if (live_ == 0) {
    if (scheduler_job_live_) {
      scheduler_job_live_ = false;
      scheduler_->complete(id_);
    }
    transition(JobState::kDone);
  }
}

void JobManager::terminate_processes() {
  for (Process& p : processes_) {
    if (p.alive()) p.terminate();
  }
}

void JobManager::on_scheduler_end(sched::EndReason reason) {
  scheduler_job_live_ = false;
  if (is_terminal(state_)) return;
  switch (reason) {
    case sched::EndReason::kCompleted:
      // complete() initiated by us after processes exited; nothing to do.
      return;
    case sched::EndReason::kCancelled:
      fail(util::ErrorCode::kAborted, "job cancelled");
      return;
    case sched::EndReason::kWallTimeExceeded:
      fail(util::ErrorCode::kTimeout, "wall time limit exceeded");
      return;
  }
}

void JobManager::cancel() { fail(util::ErrorCode::kAborted, "job cancelled"); }

void JobManager::fail(util::ErrorCode error, const std::string& message) {
  if (is_terminal(state_)) return;
  terminate_processes();
  transition(JobState::kFailed, error, message);
  // Reported first, released second: every scheduler runs the job's end
  // callback inside cancel(), which finds the job terminal and returns.
  if (scheduler_job_live_) {
    scheduler_job_live_ = false;
    scheduler_->cancel(id_);
  }
}

void JobManager::crash() {
  // The host died: no callbacks, no scheduler bookkeeping — just vanish.
  terminate_processes();
  if (!is_terminal(state_)) gatekeeper_->job_ended(id_);
  state_ = JobState::kFailed;
}

void JobManager::transition(JobState state, util::ErrorCode error,
                            const std::string& message) {
  if (state_ == state) return;
  if (is_terminal(state) && !is_terminal(state_)) gatekeeper_->job_ended(id_);
  state_ = state;
  if (callback_contact_ == net::kInvalidNode) return;
  JobStateChange change;
  change.job = id_;
  change.state = state;
  change.error = error;
  change.message = message;
  change.at = endpoint_->engine().now();
  util::Writer w;
  encode_state_change(w, change);
  endpoint_->notify(callback_contact_, kNotifyJobState, w.take());
}

}  // namespace grid::gram
