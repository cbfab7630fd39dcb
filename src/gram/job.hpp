// GRAM job model: ids, states, and state-change records.
//
// The job state machine follows the Globus GRAM protocol the paper's
// architecture builds on: PENDING (accepted, awaiting local scheduler),
// ACTIVE (processes created), then DONE or FAILED.  State transitions are
// pushed to the client's callback contact; the co-allocation layer treats
// them as advisory only — per §3.2 an application-level check-in, not a
// scheduler's ACTIVE, is what counts as a successful start.
#pragma once

#include <cstdint>
#include <string>

#include "net/network.hpp"
#include "simkit/status.hpp"
#include "simkit/time.hpp"

namespace grid::gram {

/// A job id names its job as a GRAM job contact does: the accepting
/// gatekeeper's address in the high half, that gatekeeper's sequence
/// number (from 1) in the low half.  So ids are globally unique, and a
/// cancel or a ping needs nothing but the id to find the job manager.
using JobId = std::uint64_t;

constexpr JobId make_job_id(net::NodeId gatekeeper, std::uint32_t sequence) {
  return (static_cast<JobId>(gatekeeper) << 32) | sequence;
}
constexpr net::NodeId gatekeeper_of(JobId job) {
  return static_cast<net::NodeId>(job >> 32);
}
constexpr std::uint32_t sequence_of(JobId job) {
  return static_cast<std::uint32_t>(job);
}

enum class JobState : std::uint8_t {
  kUnsubmitted = 0,
  kPending = 1,   // accepted by the job manager, queued locally
  kActive = 2,    // processes created by the local scheduler
  kDone = 3,      // all processes exited successfully
  kFailed = 4,    // job failed, was cancelled, or exceeded wall time
};

/// True for states a job can never leave.
constexpr bool is_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed;
}

/// A state transition as delivered to the callback contact.
struct JobStateChange {
  JobId job = 0;
  JobState state = JobState::kUnsubmitted;
  util::ErrorCode error = util::ErrorCode::kOk;  // set when state == kFailed
  std::string message;
  sim::Time at = 0;  // server-side timestamp of the transition
};

}  // namespace grid::gram
