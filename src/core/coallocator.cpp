#include "core/coallocator.hpp"

namespace grid::core {

Coallocator::Coallocator(net::Network& network, std::string name,
                         const gsi::CertificateAuthority& ca,
                         gsi::Credential identity, gsi::CostModel gsi_costs,
                         RequestConfig defaults)
    : endpoint_(network, std::move(name)),
      gram_client_(endpoint_, ca, std::move(identity), gsi_costs),
      defaults_(defaults) {
  endpoint_.register_notify(
      kNotifyCheckin, [this](net::NodeId src, util::Reader& payload) {
        on_checkin_notify(src, payload);
      });
}

Coallocator::~Coallocator() = default;

void Coallocator::set_contact_resolver(ContactResolver resolver) {
  resolver_ = std::move(resolver);
}

CoallocationRequest* Coallocator::create_request(RequestCallbacks callbacks) {
  return create_request(std::move(callbacks), defaults_);
}

CoallocationRequest* Coallocator::create_request(RequestCallbacks callbacks,
                                                 RequestConfig config) {
  const RequestId id = next_request_++;
  auto request = std::make_unique<CoallocationRequest>(
      *this, id, std::move(callbacks), config);
  CoallocationRequest* ptr = request.get();
  requests_.emplace(id, std::move(request));
  return ptr;
}

CoallocationRequest* Coallocator::find_request(RequestId id) {
  auto* r = requests_.find(id);
  return r == nullptr ? nullptr : r->get();
}

void Coallocator::destroy_request(RequestId id) { requests_.erase(id); }

void Coallocator::on_checkin_notify(net::NodeId src, util::Reader& payload) {
  CheckinMessage msg = CheckinMessage::decode(payload);
  if (!payload.ok()) return;
  CoallocationRequest* request = find_request(msg.request);
  if (request == nullptr) {
    abort_orphan(src, msg.request, "request no longer exists");
    return;
  }
  request->on_checkin(src, msg);
}

void Coallocator::abort_orphan(net::NodeId process, RequestId request,
                               std::string reason) {
  AbortMessage abort_msg{request, std::move(reason)};
  util::Writer w;
  abort_msg.encode(w);
  endpoint_.notify(process, kNotifyAbort, w.take());
}

}  // namespace grid::core
