// Coallocator: owns the network identity and GRAM client shared by the
// co-allocation requests of one agent, and dispatches barrier traffic.
//
// This is the "co-allocation mechanism component" of the layered
// architecture (paper §3.1): co-allocation agents (applications, resource
// brokers, the strategies in core/strategies.hpp) create requests through
// it and drive them with the editing / commit / monitoring operations.
//
// DUROC, the interactive co-allocator of §4.1, is this API used directly
// (its control library's create / find / destroy are the three request
// calls below); GRAB is core::GrabAllocator on top of it:
//
//   core::CoallocationRequest* req = mech.create_request({
//       .on_subjob = ...,    // failure callbacks drive interactive edits
//       .on_released = ...,  // barrier released with final configuration
//       .on_terminal = ...});
//   req->add_rsl("+(&(resourceManagerContact=...)...)...");
//   req->start();
//   ...edit until satisfied...
//   req->commit();
//
// Heartbeat detection is attached per request by the agent
// (core::HeartbeatDetector, core/monitor.hpp).
#pragma once

#include <memory>
#include <string>

#include "core/request.hpp"
#include "gsi/credential.hpp"
#include "gsi/protocol.hpp"
#include "net/rpc.hpp"
#include "simkit/annotate.hpp"
#include "simkit/idmap.hpp"

namespace grid::core {

class GRID_HOT Coallocator {
 public:
  Coallocator(net::Network& network, std::string name,
              const gsi::CertificateAuthority& ca, gsi::Credential identity,
              gsi::CostModel gsi_costs = {}, RequestConfig defaults = {});
  ~Coallocator();

  Coallocator(const Coallocator&) = delete;
  Coallocator& operator=(const Coallocator&) = delete;

  /// Maps resourceManagerContact strings to gatekeeper addresses.  Must be
  /// set before any request is started (the testbed installs its registry).
  void set_contact_resolver(ContactResolver resolver);

  /// Creates a request; the returned pointer is owned by the co-allocator
  /// and valid until destroy_request() or the co-allocator's destruction.
  CoallocationRequest* create_request(RequestCallbacks callbacks);
  CoallocationRequest* create_request(RequestCallbacks callbacks,
                                      RequestConfig config);

  CoallocationRequest* find_request(RequestId id);
  void destroy_request(RequestId id);

  net::Endpoint& endpoint() { return endpoint_; }
  sim::Engine& engine() { return endpoint_.engine(); }
  gram::Client& gram() { return gram_client_; }
  const ContactResolver& resolver() const { return resolver_; }
  std::size_t request_count() const { return requests_.size(); }

  /// Tells a process that checked in for `request` to exit, with `reason`:
  /// no live subjob claims it.
  void abort_orphan(net::NodeId process, RequestId request,
                    std::string reason);

 private:
  void on_checkin_notify(net::NodeId src, util::Reader& payload);

  net::Endpoint endpoint_;
  gram::Client gram_client_;
  ContactResolver resolver_;
  RequestConfig defaults_;
  RequestId next_request_ = 1;
  sim::IdSlab<std::unique_ptr<CoallocationRequest>> requests_;
};

}  // namespace grid::core
