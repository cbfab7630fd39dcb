// GRAM gatekeeper: the per-resource entry point of the resource management
// layer.
//
// Request processing reproduces the cost structure of Figure 3:
//   1. session validation (established by the GSI handshake, ~0.5 s);
//   2. initgroups() via the shared NIS server (~0.7 s);
//   3. miscellaneous request processing (~0.01 s);
//   4. job-manager creation and local-scheduler submission (fork ~1 ms per
//      process under the fork scheduler).
// The request RPC is answered after step 4 (job accepted, PENDING); ACTIVE
// and later states are pushed to the callback contact.  This reply point is
// what serializes DUROC subjob submissions and produces Figure 4's slope.
//
// A finished job's manager is reaped lazily: the next job RPC after its
// terminal instant destroys it and keeps only its final state (one byte),
// so job_state() and cancel answer exactly as they did while the manager
// lived.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gram/jobmanager.hpp"
#include "gram/nis.hpp"
#include "gram/process.hpp"
#include "gram/protocol.hpp"
#include "gsi/protocol.hpp"
#include "net/rpc.hpp"
#include "sched/scheduler.hpp"
#include "simkit/idmap.hpp"

namespace grid::gram {

/// Tunable gatekeeper-side costs (see testbed::CostModel for the calibrated
/// set used in the experiments).
struct GatekeeperCosts {
  /// Non-initgroups, non-auth request processing ("misc." in Figure 3).
  sim::Time misc_processing = 10 * sim::kMillisecond;
  /// Executable load/exec time between processor allocation and the job's
  /// processes entering main() (part of Figure 2's "successful startup").
  sim::Time exec_startup = 720 * sim::kMillisecond;
};

class Gatekeeper {
 public:
  /// All referenced collaborators must outlive the gatekeeper.
  Gatekeeper(net::Network& network, std::string host_name,
             sched::LocalScheduler& scheduler,
             const ExecutableRegistry& registry,
             const gsi::CertificateAuthority& ca, const gsi::GridMap& gridmap,
             gsi::Credential host_credential, net::NodeId nis_server,
             gsi::CostModel gsi_costs = {}, GatekeeperCosts costs = {});

  net::NodeId contact() const { return endpoint_.id(); }
  net::Endpoint& endpoint() { return endpoint_; }
  sched::LocalScheduler& scheduler() { return *scheduler_; }
  const gsi::ServerContext& gsi() const { return gsi_; }

  /// Looks up a job's current state (server-side view); a reaped job
  /// answers with its final state.
  util::Result<JobState> job_state(JobId id) const;

  /// Jobs whose manager is still held: unfinished ones, plus finished ones
  /// not yet reaped by a later request.
  std::size_t job_count() const { return jobs_.size(); }

  /// Simulates a host crash: all job managers vanish without callbacks.
  /// (Usually invoked via Network::set_node_up(contact(), false), which
  /// calls back into this through the endpoint crash hook.)
  void crash();

 private:
  friend class JobManager;

  /// A job's manager, nullptr once reaped (or for an unknown id).
  JobManager* live_job(JobId id) {
    auto* manager = jobs_.find(id);
    return manager == nullptr ? nullptr : manager->get();
  }
  /// Called by a JobManager entering a terminal state.
  void job_ended(JobId id);
  /// Destroys the managers of jobs whose terminal instant has passed.  By
  /// then every zero-delay teardown of their processes (which still calls
  /// back into the manager) has run; reaping at that instant would not be
  /// safe.  Runs on job RPCs, so reaping schedules no events of its own.
  void reap_finished();

  void handle_job_request(net::NodeId caller, std::uint64_t call_id,
                          util::Reader& args);
  void handle_job_cancel(net::NodeId caller, std::uint64_t call_id,
                         util::Reader& args);
  void handle_reserve(net::NodeId caller, std::uint64_t call_id,
                      util::Reader& args);
  void handle_reserve_cancel(net::NodeId caller, std::uint64_t call_id,
                             util::Reader& args);
  void accept_job(net::NodeId caller, std::uint64_t call_id,
                  JobRequestArgs request);

  net::Endpoint endpoint_;
  sched::LocalScheduler* scheduler_;
  const ExecutableRegistry* registry_;
  gsi::ServerContext gsi_;
  NisClient nis_;
  GatekeeperCosts costs_;
  std::uint32_t next_job_ = 1;  // sequence number of the next job id
  sim::IdSlab<std::unique_ptr<JobManager>> jobs_;
  struct Ended {
    sim::Time at;
    JobId id;
  };
  std::vector<Ended> ended_;  // awaiting reaping, in terminal-instant order
  /// Final state of each reaped job, indexed by its id's sequence_of() - 1
  /// (kUnsubmitted for ids never accepted or not yet reaped).
  std::vector<JobState> final_states_;
};

}  // namespace grid::gram
