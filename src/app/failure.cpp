#include "app/failure.hpp"

namespace grid::app {

void FailureInjector::crash_at(net::NodeId node, sim::Time at) {
  ++injected_;
  network_->engine().schedule_at(
      at, [net = network_, node] { net->set_node_up(node, false); });
}

void FailureInjector::restore_at(net::NodeId node, sim::Time at) {
  ++injected_;
  network_->engine().schedule_at(
      at, [net = network_, node] { net->set_node_up(node, true); });
}

void FailureInjector::partition_between(net::NodeId a, net::NodeId b,
                                        sim::Time from, sim::Time until) {
  ++injected_;
  network_->engine().schedule_at(
      from, [net = network_, a, b] { net->set_partitioned(a, b, true); });
  network_->engine().schedule_at(
      until, [net = network_, a, b] { net->set_partitioned(a, b, false); });
}

void FailureInjector::lossy_window(double p, sim::Time from, sim::Time until) {
  ++injected_;
  network_->engine().schedule_at(
      from, [net = network_, windows = lossy_active_, p] {
        windows->insert(p);
        net->set_drop_probability(*windows->rbegin());
      });
  network_->engine().schedule_at(
      until, [net = network_, windows = lossy_active_, p] {
        if (auto it = windows->find(p); it != windows->end()) {
          windows->erase(it);
        }
        net->set_drop_probability(windows->empty() ? 0.0
                                                   : *windows->rbegin());
      });
}

void FailureInjector::flap_link(net::NodeId a, net::NodeId b, sim::Time from,
                                sim::Time until, sim::Time period) {
  if (period <= 0) {
    partition_between(a, b, from, until);
    return;
  }
  ++injected_;
  bool down = true;
  for (sim::Time t = from; t < until; t += period) {
    network_->engine().schedule_at(t, [net = network_, a, b, down] {
      net->set_partitioned(a, b, down);
    });
    down = !down;
  }
  network_->engine().schedule_at(
      until, [net = network_, a, b] { net->set_partitioned(a, b, false); });
}

void FailureInjector::slow_node(net::NodeId node, sim::Time extra,
                                sim::Time from, sim::Time until) {
  ++injected_;
  network_->engine().schedule_at(from, [net = network_, node, extra] {
    net->set_node_extra_delay(node, extra);
  });
  network_->engine().schedule_at(
      until, [net = network_, node] { net->set_node_extra_delay(node, 0); });
}

}  // namespace grid::app
