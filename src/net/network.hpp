// Simulated network: message transport between attached nodes.
//
// This module stands in for the paper's LAN/WAN substrate.  Delivery takes
// latency_model->latency(src, dst, size); messages to crashed nodes or
// across an injected partition are dropped silently — exactly the failure
// surface the co-allocation layer has to survive (paper §2).  Reliability
// semantics (timeouts, retries) belong to the RPC layer above.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simkit/annotate.hpp"
#include "simkit/codec.hpp"
#include "simkit/engine.hpp"
#include "simkit/idmap.hpp"
#include "simkit/rng.hpp"
#include "simkit/status.hpp"

namespace grid::net {

/// Network-wide node address.  0 is never a valid address.
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0;

/// A framed message in flight.  `kind` is a frame type owned by the layer
/// above (see rpc.hpp); `payload` is a pooled buffer of codec-encoded
/// bytes.  Move-only: the payload buffer travels sender -> network ->
/// receiver without ever being copied (fan-out paths `share()` it).
struct Message {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t kind = 0;
  sim::Payload payload;
};

/// Implemented by every simulated entity that receives messages.
class Node {
 public:
  virtual ~Node() = default;

  /// Called on message delivery (at the receiving side's virtual time).
  virtual void handle_message(const Message& msg) = 0;

  /// Called when the node's host is crashed via Network::set_node_up(false).
  virtual void on_crash() {}
};

/// Pluggable one-way latency model.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual sim::Time latency(NodeId src, NodeId dst, std::size_t bytes) = 0;
};

/// Constant one-way latency regardless of endpoints and size.
class FixedLatency final : public LatencyModel {
 public:
  explicit FixedLatency(sim::Time one_way) : one_way_(one_way) {}
  sim::Time latency(NodeId, NodeId, std::size_t) override { return one_way_; }

 private:
  sim::Time one_way_;
};

/// Base latency plus uniform jitter in [0, jitter].
class JitterLatency final : public LatencyModel {
 public:
  JitterLatency(sim::Time base, sim::Time jitter, sim::Rng rng)
      : base_(base), jitter_(jitter), rng_(rng) {}
  sim::Time latency(NodeId, NodeId, std::size_t) override {
    return base_ + (jitter_ > 0 ? rng_.uniform_time(0, jitter_) : 0);
  }

 private:
  sim::Time base_;
  sim::Time jitter_;
  sim::Rng rng_;
};

/// Counters for tests and reporting.
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_down = 0;       // destination crashed/detached
  std::uint64_t dropped_partition = 0;  // src-dst pair partitioned
  std::uint64_t dropped_random = 0;     // injected loss
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  // Message-path allocation accounting: how many sent payloads rode a
  // buffer recycled from the pool vs. a fresh heap allocation.  Benches
  // and chaos tests assert budgets against these (steady state should be
  // almost entirely recycled).  Payload-less messages count in neither.
  std::uint64_t payloads_fresh = 0;
  std::uint64_t payloads_recycled = 0;
  // Re-issued attempts of retried calls (gram::Client's cancel verbs).
  std::uint64_t rpc_retries = 0;
};

/// The network itself.  Owns addressing, delivery, and failure injection.
class GRID_HOT Network {
 public:
  explicit Network(sim::Engine& engine);

  sim::Engine& engine() { return *engine_; }

  /// Slots per page of the address table (64 KiB of 16-byte slots).
  static constexpr std::size_t kSlotsPerPage = 4096;

  /// Attaches a node and returns its address: the next one in sequence
  /// from 1.  Addresses are never reused, so a late message to a departed
  /// node is dropped rather than misdelivered.
  NodeId attach(Node* node);

  /// Detaches a node; in-flight messages to it are dropped on arrival.
  /// Frees the node's page once every address in it has been issued and
  /// detached.
  void detach(NodeId id);

  /// Replaces the latency model (default: fixed 2 ms one-way, the paper's
  /// client-resource distance in §4.2).
  void set_latency_model(std::unique_ptr<LatencyModel> model);

  /// Sends a message; the payload buffer is moved, never copied.  Returns
  /// InvalidArgument for unknown src, but unknown or crashed destinations
  /// are *not* an error at send time: the message is silently dropped in
  /// flight, as on a real network.
  ///
  /// Determinism contract (ordering of the RNG-consuming steps, relied on
  /// for byte-identical seeded trials — see net_test's coverage):
  ///   1. send-side drop checks run FIRST: a message dropped because the
  ///      source is down or by injected random loss never consults the
  ///      latency model, so dropped sends do not advance a stateful
  ///      model's RNG (JitterLatency) and later deliveries keep their
  ///      timing regardless of earlier losses;
  ///   2. the random-loss check itself consumes one draw from the drop RNG
  ///      per message that reaches it (only when drop_probability > 0);
  ///   3. the latency model is consulted exactly once per message that
  ///      survives the send-side checks — including messages later dropped
  ///      at DELIVERY time (partition, crash epoch, detach), which have
  ///      already consumed their latency draw by design: the partition
  ///      swallows the message in flight, it does not un-send it.
  util::Status send(NodeId src, NodeId dst, std::uint32_t kind,
                    sim::Payload payload);

  /// Crash (up=false) or restore (up=true) a node.  Crashing invokes
  /// Node::on_crash and drops all in-flight messages to and from the node.
  /// A restored node receives what is sent after its restore; what the
  /// crash ended stays ended.
  void set_node_up(NodeId id, bool up);
  bool is_up(NodeId id) const;
  /// Crashes of `id` so far (its crash epoch; 0 for an unknown address).
  std::uint32_t crash_count(NodeId id) const;

  /// Blocks (or unblocks) delivery between a pair, both directions.
  void set_partitioned(NodeId a, NodeId b, bool blocked);
  bool is_partitioned(NodeId a, NodeId b) const;

  /// Injects i.i.d. random loss with probability p on every message.
  void set_drop_probability(double p) { drop_prob_ = p; }
  double drop_probability() const { return drop_prob_; }

  /// Reseeds the random-loss stream.  Without this every network draws the
  /// same loss pattern, so seeded trials would all lose the same messages.
  void set_drop_seed(std::uint64_t seed) { drop_rng_ = sim::Rng(seed); }

  /// Adds `extra` one-way latency to every message to or from `node` (a
  /// "slow node" latency spike); 0 clears it.  Applied at send time, so
  /// messages already in flight keep their original delivery time.  Kept
  /// for any address, attached or not.
  void set_node_extra_delay(NodeId node, sim::Time extra);
  sim::Time node_extra_delay(NodeId node) const;

  const NetworkStats& stats() const { return stats_; }
  /// Mutable counters, for the retry accounting of the layers above.
  NetworkStats& mutable_stats() { return stats_; }
  std::size_t node_count() const { return attached_; }

 private:
  /// Per-address state.  Ids are dense, issued sequentially from 1, and
  /// slot `id - 1` lives in page `(id - 1) / kSlotsPerPage`, so a lookup is
  /// a bounds check against the issued count, a page index, a null check
  /// and a slot index; nothing about node bookkeeping involves hashing or
  /// rehash-order.  Detach clears `node`, and a detached slot is never read
  /// again, so a page whose addresses have all been issued and detached is
  /// freed and a lookup into it finds a detached slot.  A slot holds only
  /// what delivery reads; names live in the Endpoint, fault-injection state
  /// in the side tables below.
  struct Slot {
    Node* node = nullptr;  // nullptr = detached
    /// Bumped on every crash (crash_count()): messages in flight across a
    /// crash of either endpoint are dropped even if the node is restored
    /// before their delivery time (the crash cut the wire).
    std::uint32_t epoch = 0;
    bool up = true;
  };

  struct Page {
    std::uint32_t attached = 0;  // slots whose node is set
    Slot slots[kSlotsPerPage];
  };

  /// A fault-injection side table: one time per address.  Only fault
  /// injection writes it, so a run without any keeps it empty.
  struct TimeTable {
    sim::IdMap index;
    std::vector<sim::Time> values;
    sim::Time get(NodeId id, sim::Time absent) const;
    void put(NodeId id, sim::Time value);
  };

  void deliver(Message msg, std::uint32_t src_epoch, std::uint32_t dst_epoch);
  Slot* slot(NodeId id);
  const Slot* slot(NodeId id) const;

  sim::Engine* engine_;
  std::unique_ptr<LatencyModel> latency_;
  sim::Rng drop_rng_;
  double drop_prob_ = 0.0;
  std::size_t attached_ = 0;
  NodeId issued_ = 0;  // the last address issued
  std::vector<std::unique_ptr<Page>> pages_;  // nullptr = freed
  // Slow-node delays, keyed by address.
  TimeTable extra_delays_;
  // Blocked (a,b) pair keys.  An IdMap used as a set: deterministic across
  // platforms and allocation-free at steady state.
  sim::IdMap partitions_;
  NetworkStats stats_;
};

}  // namespace grid::net
