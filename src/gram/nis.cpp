#include "gram/nis.hpp"

namespace grid::gram {

NisServer::NisServer(net::Network& network, sim::Time service_time)
    : endpoint_(network, "nis"), service_time_(service_time) {
  endpoint_.register_method(
      kMethodInitgroups,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        std::string user = args.str();
        if (!args.ok()) {
          endpoint_.respond_error(caller, call_id,
                                  util::ErrorCode::kInvalidArgument,
                                  "malformed initgroups request");
          return;
        }
        enqueue(Pending{caller, call_id, std::move(user)});
      });
}

void NisServer::add_user(std::string user, std::vector<std::string> groups) {
  users_[std::move(user)] = std::move(groups);
}

void NisServer::enqueue(Pending p) {
  queue_.push_back(std::move(p));
  if (!busy_) serve_next();
}

void NisServer::serve_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Pending p = std::move(queue_.front());
  queue_.pop_front();
  endpoint_.engine().schedule_after(service_time_, [this, p = std::move(p)] {
    ++served_;
    util::Writer w;
    auto it = users_.find(p.user);
    if (it == users_.end()) {
      w.varint(1);
      w.str("users");  // default primary group
    } else {
      w.varint(it->second.size() + 1);
      w.str("users");
      for (const std::string& g : it->second) w.str(g);
    }
    endpoint_.respond(p.caller, p.call_id, w.take());
    serve_next();
  });
}

NisClient::NisClient(net::Endpoint& endpoint, net::NodeId server)
    : endpoint_(&endpoint), server_(server) {}

void NisClient::initgroups(const std::string& user, sim::Time timeout,
                           DoneFn on_done) {
  util::Writer w;
  w.str(user);
  endpoint_->call(server_, kMethodInitgroups, w.take(), timeout,
                  [on_done = std::move(on_done)](const util::Status& status,
                                                 util::Reader& reply) {
                    if (!status.is_ok()) {
                      on_done(status);
                      return;
                    }
                    // Walk the group names in place: `n` comes off the
                    // wire, and a reply shorter than it fails the reader.
                    const std::uint64_t n = reply.varint();
                    for (std::uint64_t i = 0; i < n && reply.ok(); ++i) {
                      reply.str_view();
                    }
                    if (!reply.ok()) {
                      on_done(util::Status(util::ErrorCode::kInternal,
                                           "malformed initgroups reply"));
                      return;
                    }
                    on_done(util::Status::ok());
                  });
}

}  // namespace grid::gram
