#include "gram/client.hpp"

namespace grid::gram {

Client::Client(net::Endpoint& endpoint, const gsi::CertificateAuthority& ca,
               gsi::Credential identity, gsi::CostModel gsi_costs)
    : endpoint_(&endpoint),
      gsi_(endpoint, ca, std::move(identity), gsi_costs),
      crashes_seen_(endpoint.crash_count()) {
  endpoint_->register_notify(
      kNotifyJobState, [this](net::NodeId src, util::Reader& payload) {
        on_state_notify(src, payload);
      });
}

Client::~Client() {
  retries_.for_each([this](std::uint64_t, Retry& r) {
    endpoint_->engine().cancel(r.backoff);
  });
}

void Client::authenticate(net::NodeId gatekeeper, sim::Time timeout,
                          gsi::ClientContext::DoneFn on_done) {
  if (!retry_.has_value()) {
    gsi_.authenticate(gatekeeper, timeout, std::move(on_done));
    return;
  }
  // A handshake's jitter stream is keyed by this client's own counter.
  Retry retry(*retry_, next_auth_stream_++);
  retry.dst = gatekeeper;
  retry.timeout = timeout;
  retry.on_session = std::move(on_done);
  start(std::move(retry));
}

void Client::send_cancel(net::NodeId gatekeeper, std::uint32_t method,
                         std::uint64_t id, sim::Time timeout,
                         DoneFn on_done) {
  util::Writer w;
  w.u64(id);
  if (!retry_.has_value()) {
    endpoint_->call(gatekeeper, method, w.take(), timeout,
                    [on_done = std::move(on_done)](
                        const util::Status& status, util::Reader&) {
                      if (on_done) on_done(status);
                    });
    return;
  }
  // A retried call takes one endpoint call id as its ticket, which keys
  // its jitter stream.
  Retry retry(*retry_, endpoint_->take_call_id());
  retry.dst = gatekeeper;
  retry.method = method;
  retry.args = w.take();
  retry.on_done = std::move(on_done);
  start(std::move(retry));
}

void Client::start(Retry retry) {
  drop_retries_if_crashed();
  const std::uint64_t id = next_retry_++;
  retries_.emplace(id, std::move(retry));
  issue(id);
}

void Client::issue(std::uint64_t retry) {
  Retry& r = *retries_.find(retry);
  ++r.attempt;
  if (r.method == kHandshake) {
    gsi_.authenticate(r.dst, r.timeout,
                      [this, retry](util::Result<gsi::Session> session) {
                        on_outcome(retry, session.status(), &session);
                      });
    return;
  }
  if (r.attempt > 1) ++endpoint_->network().mutable_stats().rpc_retries;
  // The frozen args are shared into the attempt; call() only reads them
  // (copying into the frame), so re-sends never re-encode.
  endpoint_->call(r.dst, r.method, r.args.share(), net::kRetryAttemptTimeout,
                  [this, retry](const util::Status& status, util::Reader&) {
                    on_outcome(retry, status, nullptr);
                  });
}

void Client::on_outcome(std::uint64_t retry, const util::Status& status,
                        util::Result<gsi::Session>* session) {
  Retry& r = *retries_.find(retry);
  // Only a timeout is retried: success or a definitive error is final.
  if (status.code() == util::ErrorCode::kTimeout &&
      r.attempt < net::kRetryAttempts) {
    r.backoff = endpoint_->engine().schedule_after(
        r.schedule.backoff_before(r.attempt + 1), [this, retry] {
          if (drop_retries_if_crashed()) return;
          retries_.find(retry)->backoff = {};
          issue(retry);
        });
    return;
  }
  Retry done = std::move(r);
  retries_.erase(retry);
  if (session != nullptr) {
    done.on_session(std::move(*session));
  } else if (done.on_done) {
    done.on_done(status.code() != util::ErrorCode::kTimeout
                     ? status
                     : util::Status(util::ErrorCode::kTimeout,
                                    "rpc timeout after " +
                                        std::to_string(done.attempt) +
                                        " attempt(s)"));
  }
}

bool Client::drop_retries_if_crashed() {
  if (endpoint_->crash_count() == crashes_seen_) return false;
  crashes_seen_ = endpoint_->crash_count();
  retries_.for_each([this](std::uint64_t, Retry& r) {
    endpoint_->engine().cancel(r.backoff);
  });
  retries_.clear();
  return true;
}

void Client::submit(net::NodeId gatekeeper, std::string rsl, sim::Time timeout,
                    AcceptedFn on_accepted, StateFn on_state) {
  // Pre-ack phase (handshake) retries; the job-request RPC below is
  // deliberately one-shot — see set_retry_policy().
  authenticate(
      gatekeeper, timeout,
      [this, gatekeeper, rsl = std::move(rsl), timeout,
       on_accepted = std::move(on_accepted),
       on_state = std::move(on_state)](
          util::Result<gsi::Session> session) mutable {
        if (!session.is_ok()) {
          on_accepted(session.status());
          return;
        }
        JobRequestArgs args;
        args.session_token = session.value().token;
        args.rsl = std::move(rsl);
        args.callback_contact =
            on_state != nullptr ? endpoint_->id() : net::kInvalidNode;
        util::Writer w;
        args.encode(w);
        ++awaiting_[gatekeeper].submissions;
        endpoint_->call(
            gatekeeper, kMethodJobRequest, w.take(), timeout,
            [this, gatekeeper, on_accepted = std::move(on_accepted),
             on_state = std::move(on_state)](const util::Status& status,
                                             util::Reader& reply) mutable {
              if (!status.is_ok()) {
                settle_submission(gatekeeper, 0);
                on_accepted(status);
                return;
              }
              const JobId id = reply.u64();
              if (!reply.ok()) {
                settle_submission(gatekeeper, 0);
                on_accepted(util::Status(util::ErrorCode::kInternal,
                                         "malformed job-request reply"));
                return;
              }
              if (on_state != nullptr) {
                watchers_[id] = std::move(on_state);
              }
              on_accepted(id);
              // Flush transitions that beat the accept reply here.
              settle_submission(gatekeeper, id);
            });
      });
}

void Client::settle_submission(net::NodeId gatekeeper, JobId job) {
  auto it = awaiting_.find(gatekeeper);
  std::vector<JobStateChange> claimed;
  auto& early = it->second.early;
  for (auto c = early.begin(); c != early.end();) {
    if (c->job == job) {
      claimed.push_back(std::move(*c));
      c = early.erase(c);
    } else {
      ++c;
    }
  }
  if (--it->second.submissions == 0) awaiting_.erase(it);
  auto wit = watchers_.find(job);
  if (wit == watchers_.end()) return;
  for (const JobStateChange& c : claimed) wit->second(c);
}

void Client::on_state_notify(net::NodeId src, util::Reader& payload) {
  JobStateChange change = decode_state_change(payload);
  if (!payload.ok()) return;
  auto it = watchers_.find(change.job);
  if (it != watchers_.end()) {
    it->second(change);
    return;
  }
  // No watcher: either the job's accept reply is still in flight (buffer
  // it for that reply) or the job was forgotten (drop it).
  auto awaiting = awaiting_.find(src);
  if (awaiting != awaiting_.end()) {
    awaiting->second.early.push_back(std::move(change));
  }
}

std::size_t Client::buffered_change_count() const {
  std::size_t n = 0;
  // gridlint: allow(unordered-iter) — an order-independent sum for tests
  for (const auto& [gatekeeper, a] : awaiting_) n += a.early.size();
  return n;
}

void Client::cancel(JobId job, sim::Time timeout, DoneFn on_done) {
  send_cancel(gatekeeper_of(job), kMethodJobCancel, job, timeout,
              std::move(on_done));
}

void Client::reserve(
    net::NodeId gatekeeper, sim::Time start, sim::Time end,
    std::int32_t count, sim::Time timeout,
    std::function<void(util::Result<ReservationHandle>)> on_done) {
  authenticate(
      gatekeeper, timeout,
      [this, gatekeeper, start, end, count, timeout,
       on_done = std::move(on_done)](util::Result<gsi::Session> session) {
        if (!session.is_ok()) {
          on_done(session.status());
          return;
        }
        ReserveArgs args;
        args.session_token = session.value().token;
        args.start = start;
        args.end = end;
        args.count = count;
        util::Writer w;
        args.encode(w);
        endpoint_->call(gatekeeper, kMethodReserve, w.take(), timeout,
                        [on_done](const util::Status& status,
                                  util::Reader& reply) {
                          if (!status.is_ok()) {
                            on_done(status);
                            return;
                          }
                          ReservationHandle handle;
                          handle.id = reply.u64();
                          handle.start = reply.i64();
                          handle.end = reply.i64();
                          if (!reply.ok()) {
                            on_done(util::Status(
                                util::ErrorCode::kInternal,
                                "malformed reservation reply"));
                            return;
                          }
                          on_done(handle);
                        });
      });
}

void Client::cancel_reservation(net::NodeId gatekeeper,
                                std::uint64_t reservation, sim::Time timeout,
                                DoneFn on_done) {
  send_cancel(gatekeeper, kMethodReserveCancel, reservation, timeout,
              std::move(on_done));
}

void Client::forget(JobId job) { watchers_.erase(job); }

}  // namespace grid::gram
