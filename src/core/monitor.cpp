#include "core/monitor.hpp"

namespace grid::core {

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

void HeartbeatDetector::tick() {
  if (!running_) return;
  CoallocationRequest* req = mech_->find_request(request_);
  if (req == nullptr || is_request_terminal(req->state())) {
    stop();
    return;
  }
  const std::size_t count = req->subjob_count();
  if (watches_.size() < count) watches_.resize(count);
  for (SubjobHandle h = 1; h <= count; ++h) {
    const CoallocationRequest::SubjobBrief v = req->subjob_brief(h).value();
    // Released subjobs stay watched: a post-release death would otherwise
    // surface only when the application notices.
    const bool watchable =
        v.gram_job != 0 &&
        (v.state == SubjobState::kPending || v.state == SubjobState::kActive ||
         v.state == SubjobState::kCheckedIn ||
         v.state == SubjobState::kReleased);
    if (!watchable) continue;
    Watch& w = watches_[h - 1];
    if (w.job != v.gram_job) w = Watch{v.gram_job};  // substituted: fresh slate
    if (w.dead) continue;       // verdict already out
    if (w.in_flight) continue;  // previous beat still pending; let it miss
    beat(h, v.gram_job);
  }
  tick_event_ = mech_->engine().schedule_after(
      config_.interval, [this, alive = alive_] {
        if (*alive) tick();
      });
}

void HeartbeatDetector::beat(SubjobHandle handle, gram::JobId job) {
  ++beats_sent_;
  watches_[handle - 1].in_flight = true;
  // Raw single-attempt ping: a beat the RPC layer silently retried would
  // hide exactly the misses this detector exists to count.
  mech_->endpoint().call(
      gram::gatekeeper_of(job), gram::kMethodPing, {}, config_.beat_timeout,
      [this, alive = alive_, handle, job](const util::Status& status,
                                          util::Reader&) {
        if (!*alive) return;
        Watch& w = watches_[handle - 1];
        if (w.job != job) return;  // stale
        w.in_flight = false;
        if (w.dead) return;
        if (status.is_ok()) {
          w.misses = 0;
          return;
        }
        ++beats_missed_;
        ++w.misses;
        if (w.misses >= config_.misses_to_dead) {
          const util::Status why(
              util::ErrorCode::kUnavailable,
              "heartbeat detector: " + std::to_string(w.misses) +
                  " consecutive beats unanswered");
          w.dead = true;
          ++verdicts_;
          CoallocationRequest* req = mech_->find_request(request_);
          if (req != nullptr && !is_request_terminal(req->state())) {
            req->report_subjob_failure(handle, why);
          }
        }
      });
}

}  // namespace grid::core
