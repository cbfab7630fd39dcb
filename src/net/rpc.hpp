// Request/response and notification framing over the simulated network.
//
// Every protocol component (GRAM gatekeeper, NIS, GSI handshakes, DUROC
// barrier) is an Endpoint.  Calls carry an id, are matched to responses,
// and fail with kTimeout when the peer is crashed, partitioned, or slow —
// giving the co-allocation layer the realistic failure surface it needs.
//
// Hot-path memory model: call/response args travel in pooled payload
// buffers (simkit/bufpool.hpp), in-flight call state lives in slab tables
// recycled through free lists (simkit/idmap.hpp), and response callbacks
// are InplaceFunction so typical captures (a pointer, a ticket, a small
// std::function to forward to) stay inline.  A steady-state round-trip
// therefore touches the heap zero times — bench/micro_net asserts this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "simkit/annotate.hpp"
#include "simkit/codec.hpp"
#include "simkit/engine.hpp"
#include "simkit/idmap.hpp"
#include "simkit/inplace_function.hpp"
#include "simkit/status.hpp"

namespace grid::net {

/// Frame types used in Message::kind.
enum Frame : std::uint32_t {
  kFrameRequest = 1,
  kFrameResponse = 2,
  kFrameNotify = 3,
};

/// A bidirectional RPC endpoint attached to the network.
///
/// Server side: register_method() handlers receive (caller, call_id, args)
/// and reply later via respond()/respond_error() — responses may be delayed
/// by scheduled events to model server processing time.
/// Client side: call() with a timeout; exactly one of the response callback
/// invocations happens (response, error response, or timeout).
class GRID_HOT Endpoint : public Node {
 public:
  Endpoint(Network& network, std::string name);
  ~Endpoint() override;

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  NodeId id() const { return id_; }
  Network& network() { return *network_; }
  sim::Engine& engine() { return network_->engine(); }
  const std::string& name() const { return name_; }
  /// Crashes of this endpoint's host so far (the network's count): state
  /// kept above the RPC layer across a timer checks it when it fires.
  std::uint32_t crash_count() const { return network_->crash_count(id_); }

  // ---- client side -------------------------------------------------------

  /// 48 bytes of inline capture covers every hot response callback in the
  /// tree (a this-pointer plus a forwarded std::function is 40); larger
  /// captures still work, they just box.
  using ResponseFn =
      sim::InplaceFunction<48,
                           void(const util::Status& status,
                                util::Reader& result)>;

  /// Issues a call.  `timeout` <= 0 means no timeout.  Returns the call
  /// id.  The callback fires exactly once unless this endpoint crashes
  /// first.
  std::uint64_t call(NodeId dst, std::uint32_t method, sim::Payload args,
                     sim::Time timeout, ResponseFn on_response);

  /// Consumes one call id without issuing a call.  A retried call takes
  /// one as its ticket, so the wire ids of its attempts follow it.
  std::uint64_t take_call_id() { return next_call_id_++; }

  std::size_t pending_calls() const { return pending_.size(); }

  // ---- server side -------------------------------------------------------

  /// Handlers are InplaceFunction, not std::function: dispatch happens per
  /// message, and the registration-time captures in this tree are a `this`
  /// pointer (64 bytes of inline room covers them all; larger captures box
  /// once at registration, never per call).
  using MethodHandler =
      sim::InplaceFunction<64, void(NodeId caller, std::uint64_t call_id,
                                    util::Reader& args)>;

  void register_method(std::uint32_t method, MethodHandler handler);

  void respond(NodeId caller, std::uint64_t call_id, sim::Payload result);
  void respond_error(NodeId caller, std::uint64_t call_id, util::ErrorCode code,
                     std::string message);

  // ---- one-way notifications (used for GRAM state callbacks etc.) --------

  using NotifyHandler =
      sim::InplaceFunction<64, void(NodeId src, util::Reader& payload)>;

  void notify(NodeId dst, std::uint32_t kind, sim::Payload payload);
  void register_notify(std::uint32_t kind, NotifyHandler handler);

  /// Pre-frames a notify payload so fan-out paths (DUROC abort broadcast,
  /// barrier check-in re-send, gridmpi tables) can encode once and send
  /// the SAME buffer to N destinations via notify_frame(frame.share()).
  static sim::Payload encode_notify(std::uint32_t kind,
                                    const sim::Payload& payload);
  void notify_frame(NodeId dst, sim::Payload frame);

  // ---- Node --------------------------------------------------------------

  /// The network delivers nothing to a crashed host (Network::set_node_up).
  void handle_message(const Message& msg) override;
  void on_crash() override;

  /// Optional hook invoked when this endpoint's host is crashed.
  sim::InplaceFunction<48> crash_hook;

  /// Teardown accounting, written by every ~Endpoint on this thread (see
  /// last_teardown_report()).  Under GRID_CHECKED a teardown that leaks —
  /// a call-table slot that survives the drain, or an inconsistent slab —
  /// aborts; in all builds the report lets tests assert the audit's
  /// numbers directly.
  struct TeardownReport {
    std::uint64_t pending_calls = 0;    // live calls found at teardown
    std::uint64_t timers_cancelled = 0; // engine events this teardown killed
    std::uint64_t leaked_slots = 0;     // entries surviving the drain (== 0)
  };

  /// The most recent teardown on the calling thread (thread-local, so
  /// TrialPool workers never see a neighbour trial's teardown).
  static const TeardownReport& last_teardown_report();

 private:
  struct PendingCall {
    ResponseFn on_response;
    sim::EventId timeout_event;
  };

  void fail_call(std::uint64_t call_id, util::ErrorCode code,
                 const std::string& message);

  Network* network_;
  NodeId id_;
  std::string name_;
  /// Wire call ids stay a plain monotonic counter (NOT slab slot/
  /// generation encodings): keeping id values — and so their varint
  /// lengths — identical to the pre-slab implementation is part of the
  /// byte-identical-results guarantee for seeded experiments.
  std::uint64_t next_call_id_ = 1;
  sim::IdSlab<PendingCall> pending_;

  /// Registration tables: an endpoint registers a handful of kinds, so a
  /// vector searched linearly on every delivered frame beats any index.
  /// The first registration reserves room for two (a process's barrier
  /// endpoint registers exactly two), so most endpoints allocate once.  A
  /// handler may register another: the table may then move under it, so
  /// a handler reads none of its captures after such a call.
  template <typename Fn>
  struct Registered {
    std::uint32_t key;
    Fn fn;
  };
  std::vector<Registered<MethodHandler>> methods_;
  std::vector<Registered<NotifyHandler>> notifies_;
};

}  // namespace grid::net
