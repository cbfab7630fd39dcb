#include "core/coreserver.hpp"

namespace grid::core {

struct NetworkCoReserver::Flow {
  gram::Client* client = nullptr;
  std::vector<std::string> contacts;
  std::vector<net::NodeId> gatekeepers;
  Options options;
  DoneFn on_done;
  sim::Time probe = 0;
  std::size_t next = 0;  // contact index being reserved in this probe
  std::vector<Hold> holds;
};

void NetworkCoReserver::acquire(std::vector<std::string> contacts,
                                Options options, DoneFn on_done) {
  if (contacts.empty()) {
    on_done(util::Status(util::ErrorCode::kInvalidArgument,
                         "no contacts to co-reserve"));
    return;
  }
  if (options.step <= 0 || options.duration <= 0) {
    on_done(util::Status(util::ErrorCode::kInvalidArgument,
                         "step and duration must be positive"));
    return;
  }
  auto flow = std::make_shared<Flow>();
  flow->client = client_;
  flow->contacts = std::move(contacts);
  flow->options = options;
  flow->on_done = std::move(on_done);
  // Resolve every contact up front; an unknown contact fails fast.
  for (const std::string& contact : flow->contacts) {
    auto gatekeeper = resolver_ ? resolver_(contact)
                                : util::Result<net::NodeId>(util::Status(
                                      util::ErrorCode::kInternal,
                                      "no contact resolver installed"));
    if (!gatekeeper.is_ok()) {
      flow->on_done(gatekeeper.status());
      return;
    }
    flow->gatekeepers.push_back(gatekeeper.value());
  }
  try_probe(flow);
}

void NetworkCoReserver::try_probe(std::shared_ptr<Flow> flow) {
  if (flow->probe > flow->options.horizon) {
    flow->on_done(util::Status(
        util::ErrorCode::kResourceExhausted,
        "no common reservation window before the horizon"));
    return;
  }
  flow->next = 0;
  flow->holds.clear();
  reserve_next(std::move(flow));
}

void NetworkCoReserver::reserve_next(std::shared_ptr<Flow> flow) {
  if (flow->next == flow->contacts.size()) {
    // Phase 2 commit: every resource granted the window.
    flow->on_done(std::move(flow->holds));
    return;
  }
  const std::size_t i = flow->next;
  flow->client->reserve(
      flow->gatekeepers[i], flow->probe, flow->probe + flow->options.duration,
      flow->options.count, flow->options.rpc_timeout,
      [flow](util::Result<gram::Client::ReservationHandle> result) {
        if (result.is_ok()) {
          Hold hold;
          hold.contact = flow->contacts[flow->next];
          hold.gatekeeper = flow->gatekeepers[flow->next];
          hold.reservation = result.value().id;
          hold.start = result.value().start;
          hold.end = result.value().end;
          flow->holds.push_back(std::move(hold));
          ++flow->next;
          reserve_next(flow);
          return;
        }
        // Unsupported resources can never succeed: give up immediately.
        if (result.status().code() == util::ErrorCode::kFailedPrecondition) {
          cancel_holds(*flow->client, flow->holds);
          flow->on_done(result.status());
          return;
        }
        // Phase 2 abort: roll back and try the next window.
        cancel_holds(*flow->client, flow->holds);
        flow->probe += flow->options.step;
        try_probe(flow);
      });
}

void NetworkCoReserver::release(const std::vector<Hold>& holds) {
  cancel_holds(*client_, holds);
}

void NetworkCoReserver::cancel_holds(gram::Client& client,
                                     const std::vector<Hold>& holds) {
  for (const Hold& hold : holds) {
    client.cancel_reservation(hold.gatekeeper, hold.reservation,
                              30 * sim::kSecond, nullptr);
  }
}

std::vector<rsl::JobRequest> NetworkCoReserver::build_requests(
    const std::vector<Hold>& holds, std::int32_t count,
    const std::string& executable, rsl::SubjobStartType start_type) {
  std::vector<rsl::JobRequest> out;
  out.reserve(holds.size());
  for (const Hold& hold : holds) {
    rsl::JobRequest j;
    j.resource_manager_contact = hold.contact;
    j.executable = executable;
    j.count = count;
    j.start_type = start_type;
    j.reservation_id = hold.reservation;
    out.push_back(std::move(j));
  }
  return out;
}

}  // namespace grid::core
