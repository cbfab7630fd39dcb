#include "core/strategies.hpp"

namespace grid::core {

// ---- ReplacementAgent -------------------------------------------------------

ReplacementAgent::ReplacementAgent(Coallocator& mechanisms, Options options,
                                   RequestCallbacks user_callbacks)
    : mech_(&mechanisms),
      user_(std::move(user_callbacks)),
      spares_(std::move(options.spare_contacts)) {
  RequestCallbacks cbs;
  cbs.on_subjob = [this](SubjobHandle h, SubjobState s,
                         const util::Status& why) { on_subjob(h, s, why); };
  cbs.on_released = user_.on_released;
  cbs.on_terminal = user_.on_terminal;
  request_ = mech_->create_request(std::move(cbs));
}

void ReplacementAgent::on_subjob(SubjobHandle handle, SubjobState state,
                                 const util::Status& why) {
  if (user_.on_subjob) user_.on_subjob(handle, state, why);
  if (state == SubjobState::kFailed &&
      request_->state() == RequestState::kEditing) {
    if (request_->subjob_brief(handle).value().start_type ==
            rsl::SubjobStartType::kInteractive &&
        !spares_.empty()) {
      rsl::JobRequest replacement = request_->subjob_request(handle).take();
      replacement.resource_manager_contact = spares_.front();
      spares_.erase(spares_.begin());
      ++substitutions_;
      request_->substitute_subjob(handle, std::move(replacement));
      return;
    }
  }
  // A check-in may complete the barrier; an unrepairable failure may leave
  // the remaining (checked-in) subjobs as the final ensemble.
  if (state == SubjobState::kCheckedIn || state == SubjobState::kFailed) {
    maybe_commit();
  }
}

void ReplacementAgent::maybe_commit() {
  if (committed_ || request_->state() != RequestState::kEditing) {
    return;
  }
  for (SubjobHandle h = 1; h <= request_->subjob_count(); ++h) {
    const auto v = request_->subjob_brief(h).value();
    if (v.state == SubjobState::kFailed || v.state == SubjobState::kDeleted) {
      continue;
    }
    if (v.start_type == rsl::SubjobStartType::kOptional) continue;
    if (v.state != SubjobState::kCheckedIn) return;
  }
  committed_ = true;
  request_->commit();
}

// ---- MinimumCountAgent ------------------------------------------------------

MinimumCountAgent::MinimumCountAgent(Coallocator& mechanisms, Options options,
                                     RequestCallbacks user_callbacks)
    : mech_(&mechanisms),
      options_(options),
      user_(std::move(user_callbacks)) {
  RequestCallbacks cbs;
  cbs.on_subjob = [this](SubjobHandle h, SubjobState s,
                         const util::Status& why) { on_subjob(h, s, why); };
  cbs.on_released = user_.on_released;
  cbs.on_terminal = user_.on_terminal;
  request_ = mech_->create_request(std::move(cbs));
  if (options_.decision_deadline > 0) {
    deadline_event_ = mech_->engine().schedule_after(
        options_.decision_deadline, [this] {
          if (committed_ || is_request_terminal(request_->state())) return;
          if (checked_in_processes() >= options_.minimum_processes) {
            evaluate();
            return;
          }
          request_->abort("minimum process count not reached by deadline");
        });
  }
}

MinimumCountAgent::~MinimumCountAgent() {
  mech_->engine().cancel(deadline_event_);
}

std::int32_t MinimumCountAgent::checked_in_processes() const {
  std::int32_t n = 0;
  for (SubjobHandle h = 1; h <= request_->subjob_count(); ++h) {
    const auto v = request_->subjob_brief(h).value();
    if (v.state == SubjobState::kCheckedIn) n += v.count;
  }
  return n;
}

void MinimumCountAgent::on_subjob(SubjobHandle handle, SubjobState state,
                                  const util::Status& why) {
  if (user_.on_subjob) user_.on_subjob(handle, state, why);
  if (state == SubjobState::kCheckedIn) evaluate();
}

void MinimumCountAgent::evaluate() {
  if (committed_ || request_->state() != RequestState::kEditing) return;
  // Required subjobs must all be in before the ensemble can be trimmed:
  // deleting laggards only applies to interactive ones (Fig. 1 semantics).
  std::int32_t ready = 0;
  bool required_pending = false;
  for (SubjobHandle h = 1; h <= request_->subjob_count(); ++h) {
    const auto v = request_->subjob_brief(h).value();
    if (v.state == SubjobState::kFailed || v.state == SubjobState::kDeleted) {
      continue;
    }
    if (v.state == SubjobState::kCheckedIn) {
      ready += v.count;
    } else if (v.start_type == rsl::SubjobStartType::kRequired) {
      required_pending = true;
    }
  }
  if (ready < options_.minimum_processes || required_pending) return;
  committed_ = true;
  // Terminate subjobs that have not yet responded, then commit (§4.1).
  // remove_subjob runs the callbacks, so each slot is read afresh.
  const std::size_t count = request_->subjob_count();
  for (SubjobHandle h = 1; h <= count; ++h) {
    const auto v = request_->subjob_brief(h).value();
    if (v.state == SubjobState::kFailed || v.state == SubjobState::kDeleted ||
        v.state == SubjobState::kCheckedIn) {
      continue;
    }
    if (v.start_type == rsl::SubjobStartType::kInteractive) {
      request_->remove_subjob(h);
    }
  }
  request_->commit();
}

}  // namespace grid::core
