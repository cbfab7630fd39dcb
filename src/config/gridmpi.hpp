// gridmpi: a miniature message-passing runtime bootstrapped from the
// configuration mechanisms — the MPICH-G analog (paper §4.3).
//
// MPICH-G "uses DUROC to start the elements of an MPI job" and wires up a
// global communicator from the subjob structure.  gridmpi does the same
// over the simulated network: after barrier release, init() runs a
// three-stage address exchange built from exactly the §3.3 mechanisms
// (members -> leader gather; leader <-> leader exchange; leader -> member
// table broadcast), after which every rank can reach every other rank by
// send/recv and the ranks can sum a value with allreduce_sum.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "config/runtime_api.hpp"
#include "net/rpc.hpp"

namespace grid::cfg {

/// Notification kind (0x500 block reserved for gridmpi).
inline constexpr std::uint32_t kNotifyGridMpi = 0x501;

class Communicator {
 public:
  /// `endpoint` is the process's endpoint (typically the barrier client's);
  /// `info` is the release payload.  Call init() before any communication.
  Communicator(net::Endpoint& endpoint, core::ReleaseInfo info);
  ~Communicator();

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  /// Runs the bootstrap address exchange.  `on_ready` fires when this rank
  /// holds the full rank -> address table.  A release whose subjob index
  /// lies outside its layout, or whose total_processes is negative, leaves
  /// the communicator uninitialized.  So does, on a leader, a layout whose
  /// rank bases do not run back to back from 0 over the member tables the
  /// leaders sent, or whose total_processes differs from their sum.
  void init(std::function<void()> on_ready);
  bool initialized() const { return initialized_; }

  std::int32_t rank() const { return runtime_.my_global_rank(); }
  std::int32_t size() const { return runtime_.total_processes(); }
  const ConfigRuntime& runtime() const { return runtime_; }

  // ---- point-to-point ------------------------------------------------------

  using RecvHandler =
      std::function<void(std::int32_t src_rank, util::Reader& payload)>;

  /// Sends `payload` to `dst_rank` under `tag`.  Requires init().
  void send(std::int32_t dst_rank, std::int32_t tag, util::Bytes payload);

  /// Registers the handler for user messages with `tag`.  Messages that
  /// arrive before registration are queued and delivered on registration.
  void recv(std::int32_t tag, RecvHandler handler);

  // ---- collective (flat, rooted at global rank 0) ---------------------------

  /// Global sum; every rank receives the total.
  void allreduce_sum(std::int64_t value,
                     std::function<void(std::int64_t)> on_done);

 private:
  // Internal message kinds multiplexed on kNotifyGridMpi.
  enum Kind : std::uint8_t {
    kLeaderTable = 2,     // leader -> leader: (subjob, [(rank, node)...])
    kFullTable = 3,       // leader -> member: [(global_rank, node)...]
    kUser = 4,            // user payload: (src_rank, tag, blob)
    kReduceContrib = 8,   // rank -> 0: (seq, value)
    kReduceResult = 9,    // 0 -> rank: (seq, total)
  };

  void handle(net::NodeId src, util::Reader& payload);
  void on_leader_table(std::int32_t subjob,
                       const std::vector<net::NodeId>& nodes);
  void maybe_broadcast_table();
  void adopt_table(std::vector<net::NodeId> table);
  net::NodeId address_of(std::int32_t global_rank) const;
  void raw_send(net::NodeId node, sim::Payload frame);
  void deliver_user(std::int32_t src_rank, std::int32_t tag,
                    const util::Bytes& blob);

  net::Endpoint* endpoint_;
  ConfigRuntime runtime_;
  bool initialized_ = false;
  std::function<void()> on_ready_;

  // Bootstrap state (leaders only use the gather/exchange parts).
  std::vector<net::NodeId> my_subjob_nodes_;  // by local rank
  std::vector<std::vector<net::NodeId>> leader_tables_;  // by subjob index
  std::int32_t leader_tables_received_ = 0;
  std::vector<net::NodeId> table_;  // by global rank (post-init)

  // User receive dispatch.
  std::map<std::int32_t, RecvHandler> handlers_;
  std::map<std::int32_t, std::vector<std::pair<std::int32_t, util::Bytes>>>
      early_;

  // Reduction state (rooted at global rank 0).
  std::uint64_t reduce_seq_ = 0;
  std::map<std::uint64_t, std::int64_t> reduce_early_;
  struct ReduceState {
    std::int64_t value = 0;
    std::int32_t contributions = 0;
  };
  std::map<std::uint64_t, ReduceState> reduce_state_;  // rank 0 only
  std::map<std::uint64_t, std::function<void(std::int64_t)>> reduce_waiters_;
};

}  // namespace grid::cfg
