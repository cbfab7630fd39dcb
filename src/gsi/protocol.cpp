#include "gsi/protocol.hpp"

#include <utility>

namespace grid::gsi {

std::uint64_t challenge_response(std::uint64_t challenge,
                                 std::string_view subject) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ challenge;
  for (char c : subject) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

ServerContext::ServerContext(net::Endpoint& endpoint,
                             const CertificateAuthority& ca,
                             const GridMap& gridmap, Credential identity,
                             CostModel costs)
    : endpoint_(&endpoint),
      ca_(&ca),
      gridmap_(&gridmap),
      identity_(std::move(identity)),
      costs_(costs) {
  endpoint_->register_method(
      kMethodInit,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_init(caller, call_id, args);
      });
  endpoint_->register_method(
      kMethodFinal,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_final(caller, call_id, args);
      });
}

void ServerContext::handle_init(net::NodeId caller, std::uint64_t call_id,
                                util::Reader& args) {
  Credential cred = Credential::decode(args);
  if (!args.ok()) {
    endpoint_->respond_error(caller, call_id, util::ErrorCode::kInvalidArgument,
                             "malformed INIT");
    return;
  }
  // Verification burns server CPU before any reply is sent.
  endpoint_->engine().schedule_after(
      costs_.server_verify, [this, caller, call_id, cred = std::move(cred)] {
        const sim::Time now = endpoint_->engine().now();
        if (auto st = ca_->verify(cred, now); !st.is_ok()) {
          endpoint_->respond_error(caller, call_id, st.code(), st.message());
          return;
        }
        auto local = gridmap_->lookup(cred.subject);
        if (!local.is_ok()) {
          endpoint_->respond_error(caller, call_id, local.status().code(),
                                   local.status().message());
          return;
        }
        while (!pending_.empty() &&
               pending_.begin()->second.issued + sim::kHour < now) {
          pending_.erase(pending_.begin());  // abandoned after INIT
        }
        const std::uint64_t handshake_id = next_handshake_++;
        const std::uint64_t challenge =
            0x9e3779b97f4a7c15ULL * handshake_id ^ 0x5bf03635ULL;
        pending_.emplace_hint(
            pending_.end(), handshake_id,
            PendingHandshake{local.take(),
                             challenge_response(challenge, cred.subject), now});
        util::Writer w;
        w.reserve(18);
        identity_.encode(w);
        w.varint(handshake_id);
        w.u64(challenge);
        endpoint_->respond(caller, call_id, w.take());
      });
}

void ServerContext::handle_final(net::NodeId caller, std::uint64_t call_id,
                                 util::Reader& args) {
  const std::uint64_t handshake_id = args.varint();
  const std::uint64_t response = args.u64();
  if (!args.ok()) {
    endpoint_->respond_error(caller, call_id, util::ErrorCode::kInvalidArgument,
                             "malformed FINAL");
    return;
  }
  endpoint_->engine().schedule_after(
      costs_.server_issue, [this, caller, call_id, handshake_id, response] {
        auto it = pending_.find(handshake_id);
        if (it == pending_.end()) {
          endpoint_->respond_error(caller, call_id,
                                   util::ErrorCode::kPermissionDenied,
                                   "unknown handshake");
          return;
        }
        PendingHandshake hs = std::move(it->second);
        pending_.erase(it);
        if (response != hs.response) {
          endpoint_->respond_error(caller, call_id,
                                   util::ErrorCode::kPermissionDenied,
                                   "challenge response mismatch");
          return;
        }
        const sim::Time now = endpoint_->engine().now();
        if (!sessions_) sessions_.emplace();
        while (!sessions_->empty() && sessions_->front().expires < now) {
          sessions_->pop_front();
          ++base_token_;
        }
        Session& session = sessions_->emplace_back();
        session.token = next_token_++;
        session.local_user = std::move(hs.local_user);
        session.expires = now + sim::kHour;
        util::Writer w;
        w.reserve(22 + session.local_user.size());
        w.u64(session.token);
        w.str(session.local_user);
        w.i64(session.expires);
        endpoint_->respond(caller, call_id, w.take());
      });
}

util::Result<Session> ServerContext::validate(std::uint64_t token) const {
  if (token == 0 || token >= next_token_) {
    return util::Status(util::ErrorCode::kPermissionDenied,
                        "unknown session token");
  }
  // Tokens below the first held session were dropped after they expired.
  const std::deque<Session>& held = *sessions_;  // a token was issued
  if (token < base_token_ ||
      held[token - base_token_].expires < endpoint_->engine().now()) {
    return util::Status(util::ErrorCode::kPermissionDenied,
                        "session expired");
  }
  return held[token - base_token_];
}

ClientContext::ClientContext(net::Endpoint& endpoint,
                             const CertificateAuthority& ca,
                             Credential identity, CostModel costs)
    : endpoint_(&endpoint),
      ca_(&ca),
      identity_(std::move(identity)),
      costs_(costs),
      crashes_seen_(endpoint.crash_count()) {}

ClientContext::~ClientContext() {
  flows_.for_each([this](std::uint64_t, Flow& f) { engine().cancel(f.timer); });
}

bool ClientContext::drop_flows_if_crashed() {
  if (endpoint_->crash_count() == crashes_seen_) return false;
  crashes_seen_ = endpoint_->crash_count();
  flows_.for_each([this](std::uint64_t, Flow& f) { engine().cancel(f.timer); });
  flows_.clear();
  return true;
}

void ClientContext::finish(std::uint64_t flow, util::Result<Session> result) {
  DoneFn on_done = std::move(flows_.find(flow)->on_done);
  flows_.erase(flow);
  on_done(std::move(result));
}

void ClientContext::authenticate(net::NodeId server, sim::Time timeout,
                                 DoneFn on_done) {
  drop_flows_if_crashed();
  const std::uint64_t id = next_flow_++;
  Flow& flow = flows_.emplace(id, Flow{});
  flow.server = server;
  flow.timeout = timeout;
  flow.on_done = std::move(on_done);
  // Phase 1: client signing cost, then INIT.  Each continuation finds its
  // flow by id; a timer's continuation first checks for a crash.
  flow.timer = engine().schedule_after(costs_.client_sign, [this, id] {
    if (drop_flows_if_crashed()) return;
    Flow& sign = *flows_.find(id);
    sign.timer = {};
    util::Writer w;
    identity_.encode(w);
    endpoint_->call(
        sign.server, kMethodInit, w.take(), sign.timeout,
        [this, id](const util::Status& status, util::Reader& reply) {
          if (!status.is_ok()) {
            finish(id, status);
            return;
          }
          Flow& ack = *flows_.find(id);
          ack.server_cred = Credential::decode(reply);
          ack.handshake_id = reply.varint();
          ack.challenge = reply.u64();
          if (!reply.ok()) {
            finish(id, util::Status(util::ErrorCode::kInternal,
                                    "malformed INIT reply"));
            return;
          }
          // Phase 2: verify the server's identity (client CPU), then FINAL.
          ack.timer = engine().schedule_after(costs_.client_verify, [this, id] {
            if (drop_flows_if_crashed()) return;
            Flow& fin = *flows_.find(id);
            fin.timer = {};
            if (auto st = ca_->verify(fin.server_cred, engine().now());
                !st.is_ok()) {
              finish(id, util::Status(st.code(), "server identity rejected: " +
                                                     st.message()));
              return;
            }
            util::Writer w2;
            w2.varint(fin.handshake_id);
            w2.u64(challenge_response(fin.challenge, identity_.subject));
            endpoint_->call(
                fin.server, kMethodFinal, w2.take(), fin.timeout,
                [this, id](const util::Status& status2, util::Reader& reply2) {
                  if (!status2.is_ok()) {
                    finish(id, status2);
                    return;
                  }
                  Session session;
                  session.token = reply2.u64();
                  const std::string_view lu = reply2.str_view();
                  session.local_user.assign(lu.begin(), lu.end());
                  session.expires = reply2.i64();
                  if (!reply2.ok()) {
                    finish(id, util::Status(util::ErrorCode::kInternal,
                                            "malformed FINAL reply"));
                    return;
                  }
                  finish(id, std::move(session));
                });
          });
        });
  });
}

}  // namespace grid::gsi
