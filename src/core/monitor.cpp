#include "core/monitor.hpp"

namespace grid::core {

std::string to_string(GlobalEvent e) {
  switch (e) {
    case GlobalEvent::kAllPending:
      return "ALL_PENDING";
    case GlobalEvent::kAllActive:
      return "ALL_ACTIVE";
    case GlobalEvent::kReleased:
      return "RELEASED";
    case GlobalEvent::kDegraded:
      return "DEGRADED";
    case GlobalEvent::kDone:
      return "DONE";
    case GlobalEvent::kAborted:
      return "ABORTED";
  }
  return "?";
}

RequestCallbacks EnsembleMonitor::wrap(RequestCallbacks user) {
  user_ = std::move(user);
  RequestCallbacks cbs;
  cbs.on_subjob = [this](SubjobHandle h, SubjobState s,
                         const util::Status& why) { observe(h, s, why); };
  cbs.on_released = [this](const RuntimeConfig& config) {
    emit(GlobalEvent::kReleased);
    if (user_.on_released) user_.on_released(config);
  };
  cbs.on_terminal = [this](const util::Status& status) {
    emit(status.is_ok() ? GlobalEvent::kDone : GlobalEvent::kAborted);
    if (user_.on_terminal) user_.on_terminal(status);
  };
  return cbs;
}

void EnsembleMonitor::observe(SubjobHandle handle, SubjobState state,
                              const util::Status& why) {
  if (request_ != nullptr) {
    const Summary s = summary();
    // "All X" transitions fire once, when every live subjob has reached at
    // least the given stage.
    if (!saw_all_pending_ && s.live_subjobs > 0 &&
        s.count(SubjobState::kUnsubmitted) == 0 &&
        s.count(SubjobState::kSubmitting) == 0) {
      saw_all_pending_ = true;
      emit(GlobalEvent::kAllPending);
    }
    if (!saw_all_active_ && s.live_subjobs > 0 &&
        s.count(SubjobState::kUnsubmitted) == 0 &&
        s.count(SubjobState::kSubmitting) == 0 &&
        s.count(SubjobState::kPending) == 0) {
      saw_all_active_ = true;
      emit(GlobalEvent::kAllActive);
    }
    if (state == SubjobState::kFailed &&
        s.request_state == RequestState::kReleased) {
      emit(GlobalEvent::kDegraded);
    }
  }
  if (user_.on_subjob) user_.on_subjob(handle, state, why);
}

void EnsembleMonitor::emit(GlobalEvent event) {
  history_.push_back(event);
  if (on_event_) on_event_(event);
}

EnsembleMonitor::Summary EnsembleMonitor::summary() const {
  Summary s;
  if (request_ == nullptr) return s;
  // The request maintains the aggregate incrementally, so building the
  // collective view is O(1) — observe() calls this on every subjob event,
  // which used to make ensemble monitoring O(n²) in subjob count.
  s.request_state = request_->state();
  const CoallocationRequest::SubjobAggregate& a = request_->aggregate();
  s.by_state = a.by_state;
  s.live_subjobs = a.live_subjobs;
  s.live_processes = a.live_processes;
  s.released_processes = a.released_processes;
  s.failures = a.count(SubjobState::kFailed);
  return s;
}

// ---- heartbeat failure detection -------------------------------------------

std::string to_string(SubjobHealth h) {
  switch (h) {
    case SubjobHealth::kHealthy:
      return "HEALTHY";
    case SubjobHealth::kSuspect:
      return "SUSPECT";
    case SubjobHealth::kDead:
      return "DEAD";
  }
  return "?";
}

HeartbeatDetector::HeartbeatDetector(Coallocator& mechanisms,
                                     RequestId request, HeartbeatConfig config)
    : mech_(&mechanisms),
      request_(request),
      config_(config),
      alive_(std::make_shared<bool>(true)) {}

HeartbeatDetector::~HeartbeatDetector() {
  *alive_ = false;
  mech_->engine().cancel(tick_event_);
}

void HeartbeatDetector::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void HeartbeatDetector::stop() {
  running_ = false;
  mech_->engine().cancel(tick_event_);
}

SubjobHealth HeartbeatDetector::health(SubjobHandle handle) const {
  const Watch* w = watches_.find(handle);
  return w == nullptr ? SubjobHealth::kHealthy : w->health;
}

void HeartbeatDetector::tick() {
  if (!running_) return;
  CoallocationRequest* req = mech_->find_request(request_);
  if (req == nullptr || is_request_terminal(req->state())) {
    stop();
    return;
  }
  for (SubjobHandle h : req->subjob_order()) {
    auto brief = req->subjob_brief(h);
    if (!brief.is_ok()) continue;
    const CoallocationRequest::SubjobBrief& v = brief.value();
    // Released subjobs stay watched: a post-release death would otherwise
    // surface only when the application notices.
    const bool watchable =
        v.gram_job != 0 && v.gatekeeper != net::kInvalidNode &&
        (v.state == SubjobState::kPending || v.state == SubjobState::kActive ||
         v.state == SubjobState::kCheckedIn ||
         v.state == SubjobState::kReleased);
    if (!watchable) continue;
    Watch& w = watches_[h];
    if (w.job != v.gram_job) w = Watch{v.gram_job};  // substituted: fresh slate
    if (w.health == SubjobHealth::kDead) continue;   // verdict already out
    if (w.in_flight) continue;  // previous beat still pending; let it miss
    beat(h, v.gatekeeper, v.gram_job);
  }
  tick_event_ = mech_->engine().schedule_after(
      config_.interval, [this, alive = alive_] {
        if (*alive) tick();
      });
}

void HeartbeatDetector::beat(SubjobHandle handle, net::NodeId gatekeeper,
                             gram::JobId job) {
  ++beats_sent_;
  watches_[handle].in_flight = true;
  // Raw single-attempt ping: a beat the RPC layer silently retried would
  // hide exactly the misses this detector exists to count.
  mech_->endpoint().call(
      gatekeeper, gram::kMethodPing, {}, config_.beat_timeout,
      [this, alive = alive_, handle, job](const util::Status& status,
                                          util::Reader&) {
        if (!*alive) return;
        Watch* wp = watches_.find(handle);
        if (wp == nullptr || wp->job != job) return;  // stale
        Watch& w = *wp;
        w.in_flight = false;
        if (w.health == SubjobHealth::kDead) return;
        if (status.is_ok()) {
          ++beats_answered_;
          w.misses = 0;
          if (w.health == SubjobHealth::kSuspect) {
            transition(handle, w, SubjobHealth::kHealthy, util::Status::ok());
          }
          return;
        }
        ++beats_missed_;
        ++w.misses;
        if (w.misses >= config_.misses_to_dead) {
          const util::Status why(
              util::ErrorCode::kUnavailable,
              "heartbeat detector: " + std::to_string(w.misses) +
                  " consecutive beats unanswered");
          transition(handle, w, SubjobHealth::kDead, why);
          ++verdicts_;
          CoallocationRequest* req = mech_->find_request(request_);
          if (req != nullptr && !is_request_terminal(req->state())) {
            req->report_subjob_failure(handle, why);
          }
        } else if (w.misses >= config_.misses_to_suspect &&
                   w.health == SubjobHealth::kHealthy) {
          transition(handle, w, SubjobHealth::kSuspect,
                     util::Status(util::ErrorCode::kUnavailable,
                                  "heartbeat missed"));
        }
      });
}

void HeartbeatDetector::transition(SubjobHandle handle, Watch& w,
                                   SubjobHealth to, const util::Status& why) {
  w.health = to;
  if (on_health_) on_health_(handle, to, why);
}

}  // namespace grid::core
