// Failure injection for co-allocation experiments.
//
// Schedules the Grid failure modes of paper §2 against a running
// simulation: host crashes (and recoveries), network partitions, and
// random message loss windows.  Used by the scenario benches and the
// property tests that assert the co-allocators' invariants under fire.
#pragma once

#include <memory>
#include <set>

#include "net/network.hpp"
#include "simkit/engine.hpp"

namespace grid::app {

class FailureInjector {
 public:
  explicit FailureInjector(net::Network& network) : network_(&network) {}

  /// Crashes a node at `at`; it stays down until restored.
  void crash_at(net::NodeId node, sim::Time at);

  /// Restores a crashed node at `at`.
  void restore_at(net::NodeId node, sim::Time at);

  /// Blocks traffic between the pair during [from, until).
  void partition_between(net::NodeId a, net::NodeId b, sim::Time from,
                         sim::Time until);

  /// Applies i.i.d. message loss probability `p` during [from, until).
  /// Windows may overlap or nest: at any instant the network sees the
  /// maximum loss probability among the active windows, and the end of one
  /// window never cancels another that is still open.
  void lossy_window(double p, sim::Time from, sim::Time until);

  /// Link flapping: the pair is alternately partitioned and healed every
  /// `period` during [from, until), starting partitioned; the link is
  /// guaranteed healed at `until`.  Models the intermittent-connectivity
  /// failure mode that defeats single-shot liveness checks.
  void flap_link(net::NodeId a, net::NodeId b, sim::Time from, sim::Time until,
                 sim::Time period);

  /// Slow-node latency spike: every message to or from `node` takes an
  /// extra `extra` during [from, until) — the "overloaded system" of §2
  /// that is slow rather than dead, the case a failure detector must NOT
  /// flag while timeouts still expire.
  void slow_node(net::NodeId node, sim::Time extra, sim::Time from,
                 sim::Time until);

  std::size_t injected_events() const { return injected_; }

 private:
  net::Network* network_;
  std::size_t injected_ = 0;
  /// Loss probabilities of currently-open windows, shared with the
  /// scheduled open/close lambdas so they outlive the injector.
  std::shared_ptr<std::multiset<double>> lossy_active_ =
      std::make_shared<std::multiset<double>>();
};

}  // namespace grid::app
