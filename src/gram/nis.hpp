// Simulated Network Information Service (NIS).
//
// Figure 3 attributes the single largest share of a GRAM request (~0.7 s)
// to the Unix initgroups() call, "expensive because it must consult remote
// group databases (via the Network Information Service)".  We model NIS as
// a shared server with a FIFO request queue and a calibrated per-lookup
// service time, so the cost — and contention when lookups pile up — is
// reproduced structurally rather than hard-coded.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/rpc.hpp"
#include "simkit/status.hpp"
#include "simkit/time.hpp"

namespace grid::gram {

/// RPC method ids (0x300 block reserved for NIS).
enum NisMethod : std::uint32_t {
  kMethodInitgroups = 0x301,
};

class NisServer {
 public:
  /// `service_time` is the database-consultation cost per lookup; requests
  /// are served one at a time in arrival order.
  NisServer(net::Network& network, sim::Time service_time);

  net::NodeId id() const { return endpoint_.id(); }

  /// Registers a user's supplementary groups.  Lookups for unknown users
  /// still succeed (primary group only), as initgroups() does.
  void add_user(std::string user, std::vector<std::string> groups);

  std::uint64_t lookups_served() const { return served_; }
  sim::Time service_time() const { return service_time_; }

 private:
  struct Pending {
    net::NodeId caller;
    std::uint64_t call_id;
    std::string user;
  };

  void enqueue(Pending p);
  void serve_next();

  net::Endpoint endpoint_;
  sim::Time service_time_;
  std::deque<Pending> queue_;
  bool busy_ = false;
  std::uint64_t served_ = 0;
  std::unordered_map<std::string, std::vector<std::string>> users_;
};

/// Client-side initgroups(): one NIS lookup per call.
class NisClient {
 public:
  NisClient(net::Endpoint& endpoint, net::NodeId server);

  using DoneFn = std::function<void(const util::Status& status)>;

  /// Resolves the supplementary groups of `user` and reports only whether
  /// that worked: the caller sets the groups up, it never reads them.  The
  /// reply is still checked in full, and a malformed one is kInternal.
  /// `timeout` bounds the lookup; a crashed NIS server therefore hangs the
  /// gatekeeper only for `timeout`, another real-world failure mode the
  /// co-allocator sees.
  void initgroups(const std::string& user, sim::Time timeout, DoneFn on_done);

 private:
  net::Endpoint* endpoint_;
  net::NodeId server_;
};

}  // namespace grid::gram
