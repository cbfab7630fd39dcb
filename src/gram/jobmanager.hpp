// GRAM job manager: runs one accepted job on a local scheduler.
//
// Responsibilities (one instance per job, owned by the gatekeeper until it
// reaps the finished job):
//  * submit the job to the host's local scheduler;
//  * when the scheduler allocates processors, "exec" the requested number
//    of simulated processes (looked up in the executable registry);
//  * track process exits: all-ok -> DONE, any failure -> kill the rest and
//    FAIL; wall-time expiry and cancellation also FAIL;
//  * push PENDING / ACTIVE / DONE / FAILED callbacks to the client contact.
#pragma once

#include <string>
#include <vector>

#include "gram/job.hpp"
#include "gram/process.hpp"
#include "net/rpc.hpp"
#include "rsl/attributes.hpp"
#include "sched/scheduler.hpp"

namespace grid::gram {

class Gatekeeper;

class JobManager {
 public:
  /// `gatekeeper` owns the manager: callbacks leave through its endpoint,
  /// the job runs on its local scheduler and registry, its processes start
  /// its exec_startup after processor allocation (ACTIVE is reported when
  /// they are actually running), and it is told when the job reaches a
  /// terminal state (it reaps the manager later).
  JobManager(Gatekeeper& gatekeeper, JobId id, rsl::JobRequest request,
             net::NodeId callback_contact);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Submits to the scheduler; transitions to PENDING on success.
  util::Status start();

  /// Cancels the job: kills its processes, reports FAILED(ABORTED "job
  /// cancelled"), then dequeues or ends its scheduler job.
  void cancel();

  /// Host crash: destroy all processes silently (no callbacks escape a
  /// dead host).
  void crash();

  JobId id() const { return id_; }
  JobState state() const { return state_; }
  const rsl::JobRequest& request() const { return request_; }

 private:
  class Process;

  void on_scheduler_start();
  void exec_processes();
  void on_scheduler_end(sched::EndReason reason);
  void on_process_exit(std::int32_t rank, bool ok, const std::string& message);
  /// Ends the job in FAILED for any cause: kills the processes, reports
  /// `error`/`message`, then releases the scheduler job.  No-op once
  /// terminal.
  void fail(util::ErrorCode error, const std::string& message);
  void terminate_processes();
  void transition(JobState state, util::ErrorCode error = util::ErrorCode::kOk,
                  const std::string& message = "");

  Gatekeeper* gatekeeper_;
  net::Endpoint* endpoint_;
  sched::LocalScheduler* scheduler_;
  const ExecutableRegistry* registry_;
  JobId id_;
  rsl::JobRequest request_;
  net::NodeId callback_contact_;

  JobState state_ = JobState::kUnsubmitted;
  std::vector<Process> processes_;  // sized once at exec; never grows
  std::int32_t live_ = 0;
  bool scheduler_job_live_ = false;
};

}  // namespace grid::gram
