#include "gram/gatekeeper.hpp"

#include <algorithm>

#include "rsl/parser.hpp"
#include "sched/reservation.hpp"

namespace grid::gram {
namespace {

/// Timeout of the gatekeeper's own NIS lookups.
constexpr sim::Time kNisTimeout = 30 * sim::kSecond;

}  // namespace

Gatekeeper::Gatekeeper(net::Network& network, std::string host_name,
                       sched::LocalScheduler& scheduler,
                       const ExecutableRegistry& registry,
                       const gsi::CertificateAuthority& ca,
                       const gsi::GridMap& gridmap,
                       gsi::Credential host_credential, net::NodeId nis_server,
                       gsi::CostModel gsi_costs, GatekeeperCosts costs)
    : endpoint_(network, std::move(host_name)),
      scheduler_(&scheduler),
      registry_(&registry),
      gsi_(endpoint_, ca, gridmap, std::move(host_credential), gsi_costs),
      nis_(endpoint_, nis_server),
      costs_(costs) {
  endpoint_.register_method(
      kMethodJobRequest,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_job_request(caller, call_id, args);
      });
  endpoint_.register_method(
      kMethodJobCancel,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_job_cancel(caller, call_id, args);
      });
  endpoint_.register_method(
      kMethodPing,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader&) {
        endpoint_.respond(caller, call_id, {});
      });
  endpoint_.register_method(
      kMethodReserve,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_reserve(caller, call_id, args);
      });
  endpoint_.register_method(
      kMethodReserveCancel,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_reserve_cancel(caller, call_id, args);
      });
  endpoint_.crash_hook = [this] { crash(); };
}

void Gatekeeper::job_ended(JobId id) {
  ended_.push_back(Ended{endpoint_.engine().now(), id});
}

void Gatekeeper::reap_finished() {
  const sim::Time now = endpoint_.engine().now();
  auto first_kept = ended_.begin();
  for (; first_kept != ended_.end() && first_kept->at < now; ++first_kept) {
    const JobManager* manager = live_job(first_kept->id);
    if (manager == nullptr) continue;
    const std::size_t i = sequence_of(first_kept->id) - 1;
    if (final_states_.size() <= i) final_states_.resize(i + 1);
    final_states_[i] = manager->state();
    jobs_.erase(first_kept->id);
  }
  // What stays ended at this very instant: at most a few entries.
  ended_.erase(ended_.begin(), first_kept);
}

void Gatekeeper::handle_job_request(net::NodeId caller, std::uint64_t call_id,
                                    util::Reader& args) {
  reap_finished();
  JobRequestArgs request = JobRequestArgs::decode(args);
  if (!args.ok()) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kInvalidArgument,
                            "malformed job request");
    return;
  }
  // Authorization: the GSI session must be live.
  auto session = gsi_.validate(request.session_token);
  if (!session.is_ok()) {
    endpoint_.respond_error(caller, call_id, session.status().code(),
                            session.status().message());
    return;
  }
  // initgroups(): the dominant cost (Figure 3).  The gatekeeper must set up
  // the local user's supplementary groups before spawning the job manager.
  nis_.initgroups(
      session.value().local_user, kNisTimeout,
      [this, caller, call_id,
       request = std::move(request)](const util::Status& groups) mutable {
        if (!groups.is_ok()) {
          endpoint_.respond_error(caller, call_id,
                                  util::ErrorCode::kUnavailable,
                                  "initgroups failed: " + groups.message());
          return;
        }
        // Miscellaneous processing (request parsing, job manager setup).
        endpoint_.engine().schedule_after(
            costs_.misc_processing,
            [this, caller, call_id, request = std::move(request)]() mutable {
              accept_job(caller, call_id, std::move(request));
            });
      });
}

void Gatekeeper::accept_job(net::NodeId caller, std::uint64_t call_id,
                            JobRequestArgs request) {
  auto job_request = rsl::parse_job_request(request.rsl);
  if (!job_request.is_ok()) {
    endpoint_.respond_error(caller, call_id, job_request.status().code(),
                            "bad RSL: " + job_request.status().message());
    return;
  }
  const JobId id = make_job_id(endpoint_.id(), next_job_++);
  // Registered before start(): the scheduler may start the job (and so
  // call back, by id) inside the submit.
  JobManager* manager =
      jobs_
          .emplace(id, std::make_unique<JobManager>(
                           *this, id, job_request.take(),
                           request.callback_contact))
          .get();
  if (auto st = manager->start(); !st.is_ok()) {
    jobs_.erase(id);
    endpoint_.respond_error(caller, call_id, st.code(), st.message());
    return;
  }
  util::Writer w;
  w.u64(id);
  endpoint_.respond(caller, call_id, w.take());
}

void Gatekeeper::handle_job_cancel(net::NodeId caller, std::uint64_t call_id,
                                   util::Reader& args) {
  reap_finished();
  const JobId id = args.u64();
  if (!args.ok()) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kInvalidArgument,
                            "malformed cancel");
    return;
  }
  // Cancelling a finished job is a successful no-op, reaped or not.
  if (!job_state(id).is_ok()) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kNotFound,
                            "unknown job");
    return;
  }
  if (JobManager* manager = live_job(id)) manager->cancel();
  endpoint_.respond(caller, call_id, {});
}

void Gatekeeper::handle_reserve(net::NodeId caller, std::uint64_t call_id,
                                util::Reader& args) {
  ReserveArgs request = ReserveArgs::decode(args);
  if (!args.ok()) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kInvalidArgument,
                            "malformed reservation request");
    return;
  }
  auto session = gsi_.validate(request.session_token);
  if (!session.is_ok()) {
    endpoint_.respond_error(caller, call_id, session.status().code(),
                            session.status().message());
    return;
  }
  auto* reserver = dynamic_cast<sched::ReservationScheduler*>(scheduler_);
  if (reserver == nullptr) {
    endpoint_.respond_error(
        caller, call_id, util::ErrorCode::kFailedPrecondition,
        "resource manager does not support advance reservations");
    return;
  }
  // Admission control is cheap relative to a job request (no initgroups,
  // no job manager): just the misc processing cost.
  endpoint_.engine().schedule_after(
      costs_.misc_processing, [this, caller, call_id, request, reserver] {
        auto r = reserver->reserve(request.start, request.end, request.count);
        if (!r.is_ok()) {
          endpoint_.respond_error(caller, call_id, r.status().code(),
                                  r.status().message());
          return;
        }
        util::Writer w;
        w.u64(r.value().id);
        w.i64(r.value().start);
        w.i64(r.value().end);
        endpoint_.respond(caller, call_id, w.take());
      });
}

void Gatekeeper::handle_reserve_cancel(net::NodeId caller,
                                       std::uint64_t call_id,
                                       util::Reader& args) {
  const std::uint64_t rid = args.u64();
  if (!args.ok()) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kInvalidArgument,
                            "malformed reservation cancel");
    return;
  }
  auto* reserver = dynamic_cast<sched::ReservationScheduler*>(scheduler_);
  if (reserver == nullptr || !reserver->cancel_reservation(rid)) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kNotFound,
                            "unknown reservation");
    return;
  }
  endpoint_.respond(caller, call_id, {});
}

util::Result<JobState> Gatekeeper::job_state(JobId id) const {
  if (const auto* manager = jobs_.find(id)) return (*manager)->state();
  if (gatekeeper_of(id) == endpoint_.id() && sequence_of(id) != 0) {
    const std::size_t i = sequence_of(id) - 1;
    if (i < final_states_.size() && is_terminal(final_states_[i])) {
      return final_states_[i];
    }
  }
  return util::Status(util::ErrorCode::kNotFound, "unknown job");
}

void Gatekeeper::crash() {
  // In acceptance (id) order: the slab reuses reaped jobs' slots, and the
  // order process teardowns are scheduled in must not depend on that.
  std::vector<JobId> ids;
  ids.reserve(jobs_.size());
  jobs_.for_each([&ids](JobId id, std::unique_ptr<JobManager>&) {
    ids.push_back(id);
  });
  std::sort(ids.begin(), ids.end());
  for (const JobId id : ids) live_job(id)->crash();
  // The crash fails every job this host ever accepted, reaped ones too.
  std::replace(final_states_.begin(), final_states_.end(), JobState::kDone,
               JobState::kFailed);
}

}  // namespace grid::gram
