// Application-side co-allocation library (paper §4.1).
//
// "A process that is to run on a co-allocated node starts as normal.  The
// first thing it does is perform any non-side-effect-producing
// initialization ... It then calls the co-allocation barrier, signalling
// whether or not it has completed startup successfully."
//
// BarrierClient is that library: a process constructs one (it reads the
// DUROC contact from its environment and opens its own network endpoint),
// performs its checks, and calls enter().  Exactly one of the release or
// abort callbacks eventually fires — unless the request dies with the
// co-allocator, in which case the process's owner should rely on GRAM
// termination.
#pragma once

#include <functional>
#include <string>

#include "core/barrier_protocol.hpp"
#include "gram/process.hpp"
#include "net/rpc.hpp"
#include "simkit/annotate.hpp"

namespace grid::core {

class GRID_HOT BarrierClient {
 public:
  /// Reads GRID_DUROC_* from the process environment and opens the
  /// process's endpoint.  `api` must outlive the client.
  explicit BarrierClient(gram::ProcessApi& api);
  ~BarrierClient();

  /// True when the process was started under a co-allocator (the contact
  /// environment is present, well-formed and fits a node id).
  bool configured() const { return contact_ != net::kInvalidNode; }

  // Bound once per barrier at registration, never per message.  The view
  // is valid only during the call (runtime.hpp).
  // gridlint: allow(hot-function)
  using ReleaseFn = std::function<void(const ReleaseView&)>;
  // gridlint: allow(hot-function) — same registration-time shape
  using AbortFn = std::function<void(const std::string& reason)>;

  /// Reports the application's startup verdict and enters the barrier.
  /// With ok=false the co-allocator will fail the subjob; no release can
  /// follow.  Calling enter() on an unconfigured client is an error the
  /// caller should have avoided via configured().
  void enter(bool ok, const std::string& message, ReleaseFn on_release,
             AbortFn on_abort);

  /// Arms periodic re-transmission of the check-in (period > 0; call
  /// before enter()).  The check-in notify is the one unacknowledged step
  /// of the barrier protocol, so on a lossy network a single lost message
  /// stalls the whole barrier until the startup deadline; re-sending makes
  /// it reliable.  The co-allocator deduplicates by rank, so duplicates
  /// are harmless.  Re-sending stops at release or abort.
  void set_checkin_resend(sim::Time period) { resend_period_ = period; }

  /// The process's network endpoint (usable for application communication
  /// after release, e.g. by the gridmpi runtime).
  net::Endpoint& endpoint() { return endpoint_; }

  /// The subjob handle from GRID_DUROC_SUBJOB (0 if absent or malformed).
  SubjobHandle subjob() const { return subjob_; }

  sim::Time entered_at() const { return entered_at_; }
  sim::Time released_at() const { return released_at_; }
  bool released() const { return released_at_ >= 0; }

 private:
  void send_checkin();

  gram::ProcessApi* api_;
  net::Endpoint endpoint_;
  net::NodeId contact_ = net::kInvalidNode;
  RequestId request_ = 0;
  SubjobHandle subjob_ = 0;
  sim::Time entered_at_ = -1;
  sim::Time released_at_ = -1;
  ReleaseFn on_release_;
  AbortFn on_abort_;
  sim::Time resend_period_ = 0;
  /// The check-in, pre-framed once at enter(); re-sends share the same
  /// pooled buffer instead of re-encoding or copying.
  sim::Payload checkin_frame_;
  sim::EventId resend_event_;
  bool settled_ = false;  // release or abort observed: stop re-sending
};

}  // namespace grid::core
