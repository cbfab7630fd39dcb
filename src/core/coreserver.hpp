// Network co-reservation agent (paper §5: applying the co-allocation
// approaches to co-reservation).
//
// Acquires a common advance-reservation window on a set of remote
// resources through the GRAM reservation extension, using the same
// two-phase all-or-nothing structure as the atomic co-allocation strategy:
// reserve the probe window on each resource in turn (each call pays GSI
// authentication and network latency, as any GRAM interaction does); if
// any resource refuses, cancel the partial acquisition and retry the next
// probe.  The resulting holds carry the reservation ids that subjob RSL
// binds with the reservationId attribute — the full co-reserve-then-
// co-allocate pipeline the paper sketches as future work.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "gram/client.hpp"
#include "simkit/annotate.hpp"

namespace grid::core {

class GRID_HOT NetworkCoReserver {
 public:
  struct Options {
    /// Probing starts at time 0 and gives up past `horizon`.
    sim::Time horizon = 48 * sim::kHour;
    sim::Time step = 10 * sim::kMinute;
    sim::Time duration = sim::kHour;
    std::int32_t count = 1;
    sim::Time rpc_timeout = 30 * sim::kSecond;
  };

  struct Hold {
    std::string contact;
    net::NodeId gatekeeper = net::kInvalidNode;
    std::uint64_t reservation = 0;
    sim::Time start = 0;
    sim::Time end = 0;
  };

  /// `client` must outlive any in-flight acquisition; the reserver need not.
  NetworkCoReserver(gram::Client& client, ContactResolver resolver)
      : client_(&client), resolver_(std::move(resolver)) {}

  // One completion per acquisition attempt, never on the message path.
  // gridlint: allow(hot-function)
  using DoneFn = std::function<void(util::Result<std::vector<Hold>>)>;

  /// Asynchronously acquires a common window on every contact, or nothing.
  /// Exactly one on_done invocation.
  void acquire(std::vector<std::string> contacts, Options options,
               DoneFn on_done);

  /// Releases held reservations (fire-and-forget cancels).
  void release(const std::vector<Hold>& holds);

  /// Builds subjob requests bound to the holds (one per hold).
  static std::vector<rsl::JobRequest> build_requests(
      const std::vector<Hold>& holds, std::int32_t count,
      const std::string& executable,
      rsl::SubjobStartType start_type = rsl::SubjobStartType::kRequired);

 private:
  /// One acquisition, client included: its continuations capture only it.
  struct Flow;
  static void try_probe(std::shared_ptr<Flow> flow);
  static void reserve_next(std::shared_ptr<Flow> flow);
  static void cancel_holds(gram::Client& client,
                           const std::vector<Hold>& holds);

  gram::Client* client_;
  ContactResolver resolver_;
};

}  // namespace grid::core
