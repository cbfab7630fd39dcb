#include "core/request.hpp"

#include <charconv>

#include "core/coallocator.hpp"
#include "rsl/parser.hpp"

namespace grid::core {
namespace {

/// Writes `v` in decimal into `buf` and returns the digits.
template <std::size_t N>
std::string_view decimal(char (&buf)[N], std::uint64_t v) {
  const char* end = std::to_chars(buf, buf + N, v).ptr;
  return {buf, static_cast<std::size_t>(end - buf)};
}

/// Drops the state watcher of an accepted job and cancels it: a subjob's
/// job, or an orphan accepted after its request or slot moved on.
void abandon(gram::Client& client, const util::Result<gram::JobId>& accepted,
             sim::Time timeout) {
  if (!accepted.is_ok()) return;
  client.forget(accepted.value());
  client.cancel(accepted.value(), timeout, nullptr);
}

}  // namespace

CoallocationRequest::CoallocationRequest(Coallocator& owner, RequestId id,
                                         RequestCallbacks callbacks,
                                         RequestConfig config)
    : owner_(&owner),
      id_(id),
      callbacks_(std::move(callbacks)),
      config_(config) {}

CoallocationRequest::~CoallocationRequest() {
  for (Subjob& sj : slots_) {
    owner_->engine().cancel(sj.timeout_event);
    // Unregister the state watcher so late notifies from the job manager
    // don't fire into a destroyed request.
    if (sj.gram_job != 0) owner_->gram().forget(sj.gram_job);
  }
}

CoallocationRequest::Subjob* CoallocationRequest::find(SubjobHandle handle) {
  return handle == 0 || handle > slots_.size() ? nullptr : &slots_[handle - 1];
}

const CoallocationRequest::Subjob* CoallocationRequest::find(
    SubjobHandle handle) const {
  return handle == 0 || handle > slots_.size() ? nullptr : &slots_[handle - 1];
}

// ---- editing ---------------------------------------------------------------

util::Result<SubjobHandle> CoallocationRequest::add_subjob(
    rsl::JobRequest request) {
  if (state_ != RequestState::kEditing) {
    return util::Status(util::ErrorCode::kFailedPrecondition,
                        "request contents may not be changed once committed");
  }
  const SubjobHandle handle = slots_.size() + 1;
  Subjob& sj = slots_.emplace_back();
  sj.handle = handle;
  sj.request = std::move(request);
  if (started_) enqueue_submission(handle);
  return handle;
}

util::Status CoallocationRequest::add_rsl(const std::string& rsl_text) {
  auto jobs = rsl::parse_multi_request(rsl_text);
  if (!jobs.is_ok()) return jobs.status();
  for (rsl::JobRequest& j : jobs.value()) {
    if (auto added = add_subjob(std::move(j)); !added.is_ok()) {
      return added.status();
    }
  }
  return util::Status::ok();
}

util::Status CoallocationRequest::check_edit(SubjobHandle handle) const {
  if (state_ != RequestState::kEditing) {
    return {util::ErrorCode::kFailedPrecondition,
            "request contents may not be changed once committed"};
  }
  const Subjob* sj = find(handle);
  if (sj == nullptr || sj->state == SubjobState::kDeleted) {
    return {util::ErrorCode::kNotFound, "unknown subjob"};
  }
  return util::Status::ok();
}

util::Status CoallocationRequest::remove_subjob(SubjobHandle handle) {
  if (auto refused = check_edit(handle); !refused.is_ok()) return refused;
  Subjob& sj = *find(handle);
  retire(sj, "subjob removed from request");
  sj.state = SubjobState::kDeleted;
  release_hold(handle);
  notify_subjob(*find(handle));
  return util::Status::ok();
}

util::Status CoallocationRequest::substitute_subjob(SubjobHandle handle,
                                                    rsl::JobRequest request) {
  if (auto refused = check_edit(handle); !refused.is_ok()) return refused;
  Subjob& sj = *find(handle);
  retire(sj, "subjob substituted");
  ++sj.incarnation;
  sj.request = std::move(request);
  sj.state = SubjobState::kUnsubmitted;
  sj.process_nodes.clear();
  sj.checked_count = 0;
  sj.early_checkins.clear();
  sj.failure = util::Status::ok();
  sj.submitted_at = sj.accepted_at = sj.active_at = sj.checked_in_at = -1;
  release_hold(handle);
  notify_subjob(*find(handle));
  if (started_) enqueue_submission(handle);
  return util::Status::ok();
}

// ---- submission pipeline ---------------------------------------------------

void CoallocationRequest::start() {
  if (started_) return;
  started_ = true;
  // Indexed: a subjob failing here runs the agent callback, which may add
  // subjobs and so move every slot.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].state == SubjobState::kUnsubmitted && !slots_[i].queued) {
      enqueue_submission(slots_[i].handle);
    }
  }
}

void CoallocationRequest::enqueue_submission(SubjobHandle handle) {
  Subjob* sj = find(handle);
  if (sj == nullptr) return;
  sj->queued = true;
  submit_queue_.push_back(handle);
  pump_submissions();
}

void CoallocationRequest::pump_submissions() {
  // Subjob requests are submitted sequentially (§4.2, Figure 5): the next
  // request leaves the client only after the previous accept reply arrives.
  // Remote processing of earlier subjobs overlaps with later submissions.
  // The guard is read on every turn: a subjob failing below runs the agent
  // callback, whose edits may already have started the next submission.
  while (!submission_in_flight_ && hold_handle_ == 0 &&
         !is_request_terminal(state_) && !submit_queue_.empty()) {
    const SubjobHandle handle = submit_queue_.front();
    submit_queue_.pop_front();
    Subjob* sj = find(handle);
    if (sj == nullptr || !sj->queued ||
        sj->state != SubjobState::kUnsubmitted) {
      continue;
    }
    sj->queued = false;
    const auto& resolver = owner_->resolver();
    if (!resolver) {
      fail_subjob(handle, util::Status(util::ErrorCode::kInternal,
                                       "no contact resolver installed"));
      continue;
    }
    auto gatekeeper = resolver(sj->request.resource_manager_contact);
    if (!gatekeeper.is_ok()) {
      fail_subjob(handle, gatekeeper.status());
      continue;
    }
    sj->state = SubjobState::kSubmitting;
    sj->submitted_at = owner_->engine().now();
    arm_timeout(*sj);
    // The subjob's environment carries this request's coordinates (any
    // earlier entries of those names dropped), as DUROC did with its
    // contact environment variables.
    char contact[24];
    char request[24];
    char subjob[24];
    const rsl::EnvVar barrier_env[] = {
        {env::kContact, decimal(contact, owner_->endpoint().id())},
        {env::kRequest, decimal(request, id_)},
        {env::kSubjob, decimal(subjob, handle)},
    };
    std::string rsl = sj->request.to_rsl(barrier_env);
    const std::uint32_t inc = sj->incarnation;
    notify_subjob(*sj);  // may move every slot: `sj` is not read again
    submission_in_flight_ = true;
    // The callbacks find the request by id in the owner's table (ids are
    // never reused, and the owner's teardown cancels all that calls back).
    owner_->gram().submit(
        gatekeeper.value(), std::move(rsl), config_.rpc_timeout,
        [owner = owner_, id = id_, handle, inc,
         timeout = config_.rpc_timeout](util::Result<gram::JobId> result) {
          CoallocationRequest* self = owner->find_request(id);
          if (self == nullptr) {
            // The request was destroyed while the submit was in flight.
            abandon(owner->gram(), result, timeout);
            return;
          }
          self->submission_in_flight_ = false;
          self->on_accepted(handle, inc, std::move(result));
          self->pump_submissions();
        },
        [owner = owner_, id = id_, handle,
         inc](const gram::JobStateChange& change) {
          if (CoallocationRequest* self = owner->find_request(id)) {
            self->on_gram_state(handle, inc, change);
          }
        });
    return;  // one submission at a time
  }
}

void CoallocationRequest::on_accepted(SubjobHandle handle,
                                      std::uint32_t incarnation,
                                      util::Result<gram::JobId> result) {
  Subjob* sj = find(handle);
  if (sj == nullptr || sj->incarnation != incarnation ||
      sj->state != SubjobState::kSubmitting) {
    // The slot was edited or failed while the request was in flight: reap
    // the orphan at the gatekeeper its id names.
    abandon(owner_->gram(), result, config_.rpc_timeout);
    return;
  }
  if (!result.is_ok()) {
    fail_subjob(handle, result.status());
    return;
  }
  sj->gram_job = result.value();
  sj->accepted_at = owner_->engine().now();
  sj->state = SubjobState::kPending;
  if (config_.serialize_until_checkin) hold_handle_ = handle;
  notify_subjob(*sj);
  // Replay check-ins that raced ahead of this accept reply.
  sj = find(handle);
  if (!sj->early_checkins.empty()) {
    auto buffered = std::move(sj->early_checkins);
    sj->early_checkins.clear();
    for (auto& [src, msg] : buffered) {
      on_checkin(src, msg);
    }
  }
}

void CoallocationRequest::on_gram_state(SubjobHandle handle,
                                        std::uint32_t incarnation,
                                        const gram::JobStateChange& change) {
  Subjob* sj = find(handle);
  if (sj == nullptr || sj->incarnation != incarnation) return;
  if (is_request_terminal(state_)) return;
  switch (change.state) {
    case gram::JobState::kActive:
      if (sj->state == SubjobState::kPending) {
        sj->state = SubjobState::kActive;
        sj->active_at = owner_->engine().now();
        notify_subjob(*sj);
      }
      return;
    case gram::JobState::kFailed: {
      if (sj->state == SubjobState::kFailed ||
          sj->state == SubjobState::kDeleted) {
        return;
      }
      const util::Status why(change.error, "GRAM: " + change.message);
      if (sj->state == SubjobState::kReleased) {
        // Post-release failure: a monitoring event, not fatal to the
        // ensemble (§3.4).
        sj->state = SubjobState::kFailed;
        sj->failure = why;
        notify_subjob(*sj);
        maybe_done();
        return;
      }
      fail_subjob(handle, why);
      return;
    }
    case gram::JobState::kDone:
      if (sj->state == SubjobState::kReleased) {
        sj->state = SubjobState::kDone;
        notify_subjob(*sj);
        maybe_done();
      } else if (!is_subjob_terminal(sj->state)) {
        fail_subjob(handle,
                    util::Status(util::ErrorCode::kInternal,
                                 "job exited before barrier release"));
      }
      return;
    case gram::JobState::kPending:
    case gram::JobState::kUnsubmitted:
      return;
  }
}

// ---- barrier ----------------------------------------------------------------

void CoallocationRequest::on_checkin(net::NodeId src,
                                     const CheckinMessage& msg) {
  Subjob* sj = find(msg.subjob);
  if (sj == nullptr || is_request_terminal(state_)) {
    // Unknown slot or dead request.
    owner_->abort_orphan(src, id_, "request no longer live");
    return;
  }
  if (sj->gram_job == 0 && sj->state == SubjobState::kSubmitting) {
    // The check-in overtook the GRAM accept reply (possible under latency
    // jitter): hold it until the job id is known.
    sj->early_checkins.emplace_back(src, msg);
    return;
  }
  if (msg.gram_job != sj->gram_job || is_subjob_terminal(sj->state)) {
    // Stale incarnation (substituted or failed slot).
    owner_->abort_orphan(src, id_, "subjob superseded");
    return;
  }
  if (!msg.ok) {
    fail_subjob(msg.subjob,
                util::Status(util::ErrorCode::kInternal,
                             "process " + std::to_string(msg.rank) +
                                 " reported failed startup: " + msg.message));
    return;
  }
  const auto count = static_cast<std::size_t>(sj->request.count);
  if (sj->process_nodes.size() != count) {
    sj->process_nodes.assign(count, net::kInvalidNode);
  }
  if (msg.rank < 0 || static_cast<std::size_t>(msg.rank) >= count) return;
  const auto rank = static_cast<std::size_t>(msg.rank);
  if (sj->process_nodes[rank] != net::kInvalidNode) return;  // duplicate
  sj->process_nodes[rank] = src;
  ++sj->checked_count;
  if (sj->checked_count == sj->request.count) {
    const SubjobHandle handle = sj->handle;
    sj->state = SubjobState::kCheckedIn;
    sj->checked_in_at = owner_->engine().now();
    owner_->engine().cancel(sj->timeout_event);
    notify_subjob(*sj);
    release_hold(handle);
    if (state_ == RequestState::kReleased) {
      // A late optional subjob joins the running computation (§3.2).
      Subjob& joined = *find(handle);
      add_layout(joined);
      send_releases(joined);
    } else {
      maybe_release();
    }
  }
}

void CoallocationRequest::maybe_release() {
  if (state_ != RequestState::kCommitted) return;
  std::size_t live = 0;
  for (const Subjob& sj : slots_) {
    if (!is_live(sj)) continue;
    ++live;
    if (sj.request.start_type == rsl::SubjobStartType::kOptional) continue;
    if (sj.state != SubjobState::kCheckedIn) return;  // barrier not full
  }
  if (live == 0) {
    abort("no live subjobs remain in the committed request");
    return;
  }
  // Release: build the final configuration over fully checked-in subjobs
  // (insertion order), then let every process out of the barrier.
  state_ = RequestState::kReleased;
  released_at_ = owner_->engine().now();
  config_table_ = RuntimeConfig{};
  config_table_.request = id_;
  for (const Subjob& sj : slots_) {
    // Pending optional subjobs join when they check in.
    if (sj.state == SubjobState::kCheckedIn) add_layout(sj);
  }
  // Indexed: each release runs the agent callback.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].state == SubjobState::kCheckedIn) send_releases(slots_[i]);
  }
  if (callbacks_.on_released) callbacks_.on_released(config_table_);
}

void CoallocationRequest::add_layout(const Subjob& sj) {
  SubjobLayout layout;
  layout.subjob = sj.handle;
  layout.index = static_cast<std::int32_t>(config_table_.subjobs.size());
  layout.size = sj.request.count;
  layout.rank_base = config_table_.total_processes;
  layout.leader = sj.process_nodes.empty() ? net::kInvalidNode
                                           : sj.process_nodes.front();
  layout.contact = sj.request.resource_manager_contact;
  config_table_.total_processes += sj.request.count;
  config_table_.subjobs.push_back(std::move(layout));
}

void CoallocationRequest::send_releases(Subjob& sj) {
  sj.state = SubjobState::kReleased;
  sj.released_at = owner_->engine().now();
  for (std::int32_t rank = 0; rank < sj.request.count; ++rank) {
    send_release(sj, rank);
  }
  notify_subjob(sj);
}

void CoallocationRequest::send_release(const Subjob& sj, std::int32_t rank) {
  const SubjobLayout* layout = nullptr;
  for (const SubjobLayout& l : config_table_.subjobs) {
    if (l.subjob == sj.handle) {
      layout = &l;
      break;
    }
  }
  if (layout == nullptr) return;
  // The release: the request id, then this process's ReleaseInfo, written
  // straight from the table.
  util::Writer w;
  w.u64(id_);
  ReleaseInfo::encode(w, config_table_, layout->index, rank,
                      layout->rank_base + rank, sj.process_nodes);
  owner_->endpoint().notify(sj.process_nodes[static_cast<std::size_t>(rank)],
                            kNotifyRelease, w.take());
}

// ---- commit / abort / failure ----------------------------------------------

util::Status CoallocationRequest::commit() {
  if (state_ != RequestState::kEditing) {
    return {util::ErrorCode::kFailedPrecondition,
            "commit is only valid from the editing phase"};
  }
  if (slots_.empty()) {
    return {util::ErrorCode::kFailedPrecondition,
            "cannot commit an empty request"};
  }
  start();  // commit implies the pipeline is running
  if (state_ != RequestState::kEditing) {
    // A subjob that failed inside start() ended the request (or its
    // callback committed): the terminal callback has already run.
    return {util::ErrorCode::kFailedPrecondition,
            "commit is only valid from the editing phase"};
  }
  state_ = RequestState::kCommitted;
  maybe_release();
  return util::Status::ok();
}

void CoallocationRequest::arm_timeout(Subjob& sj) {
  if (config_.startup_timeout <= 0) return;
  owner_->engine().cancel(sj.timeout_event);
  sj.timeout_event = owner_->engine().schedule_after(
      config_.startup_timeout, [this, handle = sj.handle] {
        Subjob* s = find(handle);
        if (s == nullptr || is_subjob_terminal(s->state) ||
            s->state == SubjobState::kCheckedIn ||
            s->state == SubjobState::kReleased) {
          return;
        }
        fail_subjob(handle,
                    util::Status(util::ErrorCode::kTimeout,
                                 "subjob did not check in before the startup "
                                 "deadline"));
      });
}

void CoallocationRequest::retire(Subjob& sj, const std::string& reason) {
  owner_->engine().cancel(sj.timeout_event);
  if (sj.gram_job != 0) {
    abandon(owner_->gram(), sj.gram_job, config_.rpc_timeout);
    sj.gram_job = 0;
  }
  AbortMessage msg{id_, reason};
  util::Writer w;
  msg.encode(w);
  // One encode, one buffer: every checked-in process gets a share of the
  // same pooled frame.
  const sim::Payload frame =
      net::Endpoint::encode_notify(kNotifyAbort, w.take());
  for (std::size_t rank = 0; rank < sj.process_nodes.size(); ++rank) {
    if (sj.process_nodes[rank] != net::kInvalidNode) {
      owner_->endpoint().notify_frame(sj.process_nodes[rank], frame.share());
    }
  }
}

void CoallocationRequest::release_hold(SubjobHandle handle) {
  if (hold_handle_ != handle) return;
  hold_handle_ = 0;
  pump_submissions();
}

void CoallocationRequest::fail_subjob(SubjobHandle handle, util::Status why) {
  Subjob* sj = find(handle);
  if (sj == nullptr || is_subjob_terminal(sj->state)) return;
  retire(*sj, "subjob failed: " + why.message());
  sj->state = SubjobState::kFailed;
  sj->failure = why;
  release_hold(handle);
  sj = find(handle);
  const rsl::SubjobStartType type = sj->request.start_type;
  // The agent callback runs before category handling so a failure can be
  // repaired (substitute/remove) in the same turn (§3.2).
  notify_subjob(*sj);
  if (is_request_terminal(state_)) return;  // agent aborted in the callback
  // If the agent edited the slot during the callback it is no longer a
  // failed member of the request: category handling does not apply.
  sj = find(handle);
  if (sj == nullptr || sj->state != SubjobState::kFailed) return;
  switch (type) {
    case rsl::SubjobStartType::kRequired:
      abort("required subjob on '" + sj->request.resource_manager_contact +
            "' failed: " + why.message());
      return;
    case rsl::SubjobStartType::kInteractive:
      if (state_ == RequestState::kCommitted) {
        // Edits are frozen after commit, so an interactive failure that the
        // agent could not repair beforehand is unrecoverable.
        abort("interactive subjob on '" +
              sj->request.resource_manager_contact +
              "' failed after commit: " + why.message());
      }
      return;
    case rsl::SubjobStartType::kOptional:
      if (state_ == RequestState::kReleased) maybe_done();
      return;
  }
}

void CoallocationRequest::abort(const std::string& reason) {
  if (is_request_terminal(state_)) return;
  state_ = RequestState::kAborted;  // set first: callbacks see a dead request
  // Indexed: each failed slot runs the agent callback.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Subjob& sj = slots_[i];
    if (sj.state == SubjobState::kDeleted) continue;
    retire(sj, reason);
    if (sj.state != SubjobState::kFailed && sj.state != SubjobState::kDone) {
      sj.state = SubjobState::kFailed;
      sj.failure = util::Status(util::ErrorCode::kAborted, reason);
      notify_subjob(sj);
    }
  }
  finish(util::Status(util::ErrorCode::kAborted, reason));
}

void CoallocationRequest::maybe_done() {
  if (state_ != RequestState::kReleased) return;
  bool any = false;
  for (const Subjob& sj : slots_) {
    if (!is_live(sj)) continue;
    any = true;
    if (sj.state != SubjobState::kDone) return;
  }
  if (!any) {
    finish(util::Status(util::ErrorCode::kAborted,
                        "every subjob failed after release"));
    return;
  }
  finish(util::Status::ok());
}

void CoallocationRequest::finish(util::Status status) {
  if (!is_request_terminal(state_)) {
    state_ = status.is_ok() ? RequestState::kDone : RequestState::kAborted;
  }
  if (callbacks_.on_terminal) {
    auto cb = callbacks_.on_terminal;  // survives agent-side destroy_request
    cb(status);
  }
}

// ---- monitoring --------------------------------------------------------------

void CoallocationRequest::notify_subjob(const Subjob& sj) {
  if (!callbacks_.on_subjob) return;
  // A copy: the callback may add a subjob, which moves `sj`.
  const util::Status why = sj.failure;
  callbacks_.on_subjob(sj.handle, sj.state, why);
}

util::Result<CoallocationRequest::SubjobBrief>
CoallocationRequest::subjob_brief(SubjobHandle handle) const {
  const Subjob* sj = find(handle);
  if (sj == nullptr) {
    return util::small_status(util::ErrorCode::kNotFound, "unknown subjob");
  }
  SubjobBrief b;
  b.state = sj->state;
  b.start_type = sj->request.start_type;
  b.count = sj->request.count;
  b.checked_in = sj->checked_count;
  b.gram_job = sj->gram_job;
  b.submitted_at = sj->submitted_at;
  b.accepted_at = sj->accepted_at;
  b.active_at = sj->active_at;
  b.checked_in_at = sj->checked_in_at;
  b.released_at = sj->released_at;
  return b;
}

util::Result<rsl::JobRequest> CoallocationRequest::subjob_request(
    SubjobHandle handle) const {
  const Subjob* sj = find(handle);
  if (sj == nullptr) {
    return util::Status(util::ErrorCode::kNotFound, "unknown subjob");
  }
  return sj->request;
}

}  // namespace grid::core
