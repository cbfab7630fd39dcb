#include "gram/client.hpp"

namespace grid::gram {

Client::Client(net::Endpoint& endpoint, const gsi::CertificateAuthority& ca,
               gsi::Credential identity, gsi::CostModel gsi_costs)
    : endpoint_(&endpoint),
      gsi_(endpoint, ca, std::move(identity), gsi_costs) {
  endpoint_->register_notify(
      kNotifyJobState, [this](net::NodeId src, util::Reader& payload) {
        on_state_notify(src, payload);
      });
}

struct Client::AuthRetryState {
  net::NodeId gatekeeper;
  sim::Time timeout;
  net::RetrySchedule schedule;
  gsi::ClientContext::DoneFn done;
};

void Client::authenticate_with_retry(net::NodeId gatekeeper, sim::Time timeout,
                                     gsi::ClientContext::DoneFn on_done) {
  if (!retry_.has_value()) {
    gsi_.authenticate(gatekeeper, timeout, std::move(on_done));
    return;
  }
  auto state = std::make_shared<AuthRetryState>(AuthRetryState{
      gatekeeper, timeout, net::RetrySchedule(*retry_, next_auth_stream_++),
      std::move(on_done)});
  auth_attempt(std::move(state), 1);
}

void Client::auth_attempt(std::shared_ptr<AuthRetryState> state, int n) {
  AuthRetryState* s = state.get();
  gsi_.authenticate(
      s->gatekeeper, s->timeout,
      [this, state = std::move(state),
       n](util::Result<gsi::Session> session) mutable {
        if (session.is_ok() ||
            session.status().code() != util::ErrorCode::kTimeout ||
            n >= net::kRetryAttempts) {
          state->done(std::move(session));
          return;
        }
        const sim::Time backoff = state->schedule.backoff_before(n + 1);
        endpoint_->engine().schedule_after(
            backoff, [this, state = std::move(state), n]() mutable {
              auth_attempt(std::move(state), n + 1);
            });
      });
}

void Client::idempotent_call(net::NodeId dst, std::uint32_t method,
                             sim::Payload args, sim::Time timeout,
                             net::Endpoint::ResponseFn on_response) {
  if (retry_.has_value()) {
    endpoint_->retrying_call(dst, method, std::move(args), *retry_,
                             std::move(on_response));
  } else {
    endpoint_->call(dst, method, std::move(args), timeout,
                    std::move(on_response));
  }
}

void Client::submit(net::NodeId gatekeeper, std::string rsl, sim::Time timeout,
                    AcceptedFn on_accepted, StateFn on_state) {
  // Pre-ack phase (handshake) retries; the job-request RPC below is
  // deliberately one-shot — see set_retry_policy().
  authenticate_with_retry(
      gatekeeper, timeout,
      [this, gatekeeper, rsl = std::move(rsl), timeout,
       on_accepted = std::move(on_accepted),
       on_state = std::move(on_state)](util::Result<gsi::Session> session) {
        if (!session.is_ok()) {
          on_accepted(session.status());
          return;
        }
        JobRequestArgs args;
        args.session_token = session.value().token;
        args.rsl = rsl;
        args.callback_contact =
            on_state != nullptr ? endpoint_->id() : net::kInvalidNode;
        util::Writer w;
        args.encode(w);
        ++awaiting_[gatekeeper].submissions;
        endpoint_->call(
            gatekeeper, kMethodJobRequest, w.take(), timeout,
            [this, gatekeeper, on_accepted, on_state](
                const util::Status& status, util::Reader& reply) {
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
                watchers_[id] = on_state;
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

void Client::cancel(net::NodeId gatekeeper, JobId job, sim::Time timeout,
                    DoneFn on_done) {
  util::Writer w;
  w.u64(job);
  idempotent_call(gatekeeper, kMethodJobCancel, w.take(), timeout,
                  [on_done = std::move(on_done)](const util::Status& status,
                                                 util::Reader&) {
                    if (on_done) on_done(status);
                  });
}

void Client::reserve(
    net::NodeId gatekeeper, sim::Time start, sim::Time end,
    std::int32_t count, sim::Time timeout,
    std::function<void(util::Result<ReservationHandle>)> on_done) {
  authenticate_with_retry(
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
  util::Writer w;
  w.u64(reservation);
  idempotent_call(gatekeeper, kMethodReserveCancel, w.take(), timeout,
                  [on_done = std::move(on_done)](const util::Status& status,
                                                 util::Reader&) {
                    if (on_done) on_done(status);
                  });
}

void Client::forget(JobId job) { watchers_.erase(job); }

}  // namespace grid::gram
