#include "net/network.hpp"

#include <limits>
#include <utility>

namespace grid::net {

sim::Time Network::TimeTable::get(NodeId id, sim::Time absent) const {
  const std::uint32_t i = index.find(id);
  return i == sim::IdMap::kNotFound ? absent : values[i];
}

void Network::TimeTable::put(NodeId id, sim::Time value) {
  const std::uint32_t i = index.find(id);
  if (i != sim::IdMap::kNotFound) {
    values[i] = value;
    return;
  }
  index.insert(id, static_cast<std::uint32_t>(values.size()));
  values.push_back(value);
}

Network::Network(sim::Engine& engine)
    : engine_(&engine),
      latency_(std::make_unique<FixedLatency>(2 * sim::kMillisecond)),
      drop_rng_(0xda7a5eedULL) {}

Network::Slot* Network::slot(NodeId id) {
  return const_cast<Slot*>(std::as_const(*this).slot(id));
}

const Network::Slot* Network::slot(NodeId id) const {
  // kInvalidNode wraps to SIZE_MAX, past every issued address.
  const std::size_t idx = std::size_t{id} - 1;
  if (idx >= issued_) return nullptr;
  const Page* page = pages_[idx / kSlotsPerPage].get();
  if (page == nullptr) return nullptr;
  const Slot& s = page->slots[idx % kSlotsPerPage];
  return s.node == nullptr ? nullptr : &s;
}

NodeId Network::attach(Node* node) {
  GRID_CHECK(node != nullptr, "Network::attach of a null node");
  GRID_CHECK(issued_ < std::numeric_limits<NodeId>::max(),
             "Network::attach past the last NodeId");
  const std::size_t idx = issued_++;
  if (idx % kSlotsPerPage == 0) pages_.push_back(std::make_unique<Page>());
  Page& page = *pages_.back();
  page.slots[idx % kSlotsPerPage].node = node;
  ++page.attached;
  ++attached_;
  return issued_;
}

void Network::detach(NodeId id) {
  Slot* s = slot(id);
  if (s == nullptr) return;
  s->node = nullptr;
  --attached_;
  // A page is freed once no address in it can be attached again: every
  // one has been issued (attach has moved past it) and detached.
  const std::size_t p = (std::size_t{id} - 1) / kSlotsPerPage;
  if (--pages_[p]->attached == 0 && (p + 1) * kSlotsPerPage <= issued_) {
    pages_[p].reset();
  }
}

void Network::set_latency_model(std::unique_ptr<LatencyModel> model) {
  if (model) latency_ = std::move(model);
}

util::Status Network::send(NodeId src, NodeId dst, std::uint32_t kind,
                           sim::Payload payload) {
  const Slot* s = slot(src);
  if (s == nullptr) {
    return {util::ErrorCode::kInvalidArgument, "send from unknown node"};
  }
  ++stats_.sent;
  stats_.bytes_sent += payload.size();
  if (payload.attached()) {
    if (payload.recycled()) {
      ++stats_.payloads_recycled;
    } else {
      ++stats_.payloads_fresh;
    }
  }
  // Step order below is the determinism contract documented on send() in
  // network.hpp: drop checks BEFORE the latency-model consult.
  if (!s->up) {
    // A crashed host cannot transmit.
    ++stats_.dropped_down;
    return util::Status::ok();
  }
  if (drop_prob_ > 0.0 && drop_rng_.chance(drop_prob_)) {
    ++stats_.dropped_random;
    return util::Status::ok();
  }
  const sim::Time dt = latency_->latency(src, dst, payload.size()) +
                       node_extra_delay(src) + node_extra_delay(dst);
  Message msg{src, dst, kind, std::move(payload)};
  engine_->schedule_after(
      dt, [this, m = std::move(msg), se = crash_count(src),
           de = crash_count(dst)]() mutable {
        deliver(std::move(m), se, de);
      });
  return util::Status::ok();
}

void Network::deliver(Message msg, std::uint32_t src_epoch,
                      std::uint32_t dst_epoch) {
  // Partition and liveness are evaluated at delivery time, so a partition
  // injected while a message is in flight still swallows it.
  if (is_partitioned(msg.src, msg.dst)) {
    ++stats_.dropped_partition;
    return;
  }
  const Slot* d = slot(msg.dst);
  if (d == nullptr || !d->up) {
    ++stats_.dropped_down;
    return;
  }
  // A crash of either endpoint while the message was in flight loses it,
  // even if the node was restored before the nominal delivery time.
  if (d->epoch != dst_epoch || crash_count(msg.src) != src_epoch) {
    ++stats_.dropped_down;
    return;
  }
  ++stats_.delivered;
  stats_.bytes_delivered += msg.payload.size();
  d->node->handle_message(msg);
}

std::uint32_t Network::crash_count(NodeId id) const {
  const Slot* s = slot(id);
  return s == nullptr ? 0 : s->epoch;
}

void Network::set_node_up(NodeId id, bool up) {
  Slot* s = slot(id);
  if (s == nullptr) return;
  const bool was_up = s->up;
  s->up = up;
  if (was_up && !up) {
    ++s->epoch;
    s->node->on_crash();
  }
}

bool Network::is_up(NodeId id) const {
  const Slot* s = slot(id);
  return s != nullptr && s->up;
}

void Network::set_partitioned(NodeId a, NodeId b, bool blocked) {
  const std::uint64_t k =
      a < b ? (static_cast<std::uint64_t>(a) << 32) | b
            : (static_cast<std::uint64_t>(b) << 32) | a;
  if (blocked) {
    if (partitions_.find(k) == sim::IdMap::kNotFound) partitions_.insert(k, 1);
  } else {
    partitions_.erase(k);
  }
}

bool Network::is_partitioned(NodeId a, NodeId b) const {
  const std::uint64_t k =
      a < b ? (static_cast<std::uint64_t>(a) << 32) | b
            : (static_cast<std::uint64_t>(b) << 32) | a;
  return partitions_.find(k) != sim::IdMap::kNotFound;
}

void Network::set_node_extra_delay(NodeId node, sim::Time extra) {
  if (node == kInvalidNode) return;
  extra_delays_.put(node, extra < 0 ? 0 : extra);
}

sim::Time Network::node_extra_delay(NodeId node) const {
  return extra_delays_.get(node, 0);
}

}  // namespace grid::net
