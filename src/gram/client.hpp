// GRAM client library: submit / cancel / reserve against remote gatekeepers.
//
// Each submission performs its own GSI handshake ("each with its inherent
// authentication and protocol overhead", §4.2) and then the job-request
// RPC.  State-change notifications from job managers are dispatched to the
// per-job callback; notifications that race ahead of the accept reply are
// buffered so no transition is lost.  A change can only race ahead of a
// reply that is still awaited, so changes are buffered per gatekeeper
// while a submission to it waits for its reply, and dropped with the
// buffer once none does (they belong to forgotten jobs).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "gram/protocol.hpp"
#include "gsi/protocol.hpp"
#include "net/retry.hpp"
#include "net/rpc.hpp"
#include "simkit/status.hpp"

namespace grid::gram {

class Client {
 public:
  /// The client owns the notify registration on `endpoint`; use one Client
  /// per endpoint.
  Client(net::Endpoint& endpoint, const gsi::CertificateAuthority& ca,
         gsi::Credential identity, gsi::CostModel gsi_costs = {});

  using AcceptedFn = std::function<void(util::Result<JobId>)>;
  using StateFn = std::function<void(const JobStateChange&)>;
  using DoneFn = std::function<void(util::Status)>;

  /// Opts this client into fault-tolerant RPC.  Idempotent verbs (cancel,
  /// reservation cancel) are re-issued on timeout on the schedule
  /// of net/retry.hpp, with `policy`'s jitter seed; their own `timeout`
  /// then gives way to kRetryAttemptTimeout per attempt.  submit() and
  /// reserve() retry only their pre-ack phase (the GSI handshake) — the
  /// job-request / reserve RPC itself is never re-sent, since a retry
  /// after a lost *accept reply* would allocate a second job or window on
  /// the server.  nullopt restores one-shot calls.
  void set_retry_policy(std::optional<net::RetryPolicy> policy) {
    retry_ = policy;
  }

  /// Submits `rsl` (a '&' conjunction fragment) to the gatekeeper.
  /// `on_accepted` fires once with the job id or an error; `on_state`
  /// (optional) then receives every state transition.  `timeout` bounds
  /// each protocol phase (handshake round trips and the request RPC).
  void submit(net::NodeId gatekeeper, std::string rsl, sim::Time timeout,
              AcceptedFn on_accepted, StateFn on_state = nullptr);

  /// Cancels a job previously accepted by `gatekeeper`.
  void cancel(net::NodeId gatekeeper, JobId job, sim::Time timeout,
              DoneFn on_done);

  /// An acquired advance reservation as seen by the client.
  struct ReservationHandle {
    std::uint64_t id = 0;
    sim::Time start = 0;
    sim::Time end = 0;
  };

  /// Requests an advance reservation (paper §5); performs its own GSI
  /// handshake.  Fails with kFailedPrecondition on resources without
  /// reservation support.
  void reserve(net::NodeId gatekeeper, sim::Time start, sim::Time end,
               std::int32_t count, sim::Time timeout,
               std::function<void(util::Result<ReservationHandle>)> on_done);

  /// Releases an advance reservation.
  void cancel_reservation(net::NodeId gatekeeper, std::uint64_t reservation,
                          sim::Time timeout, DoneFn on_done);

  /// Detaches the state callback of a job (e.g. after DUROC releases it).
  void forget(JobId job);

  net::Endpoint& endpoint() { return *endpoint_; }

  /// Jobs with a state callback attached.
  std::size_t watcher_count() const { return watchers_.size(); }
  /// State changes buffered for accept replies still in flight.
  std::size_t buffered_change_count() const;

 private:
  void on_state_notify(net::NodeId src, util::Reader& payload);
  /// A job request to `gatekeeper` got its reply (or failed): hands the
  /// buffered changes of `job` (0 = none) to its watcher, then drops the
  /// gatekeeper's buffer if no other submission to it is waiting.
  void settle_submission(net::NodeId gatekeeper, JobId job);
  /// Runs the GSI handshake, re-trying whole handshakes on timeout when a
  /// retry policy is installed (the handshake is idempotent: an abandoned
  /// half-open exchange only leaves server-side state that expires).
  void authenticate_with_retry(net::NodeId gatekeeper, sim::Time timeout,
                               gsi::ClientContext::DoneFn on_done);
  /// One handshake attempt of the retry loop; continuations share `state`
  /// (a plain data holder, so no closure cycle keeps it alive forever).
  struct AuthRetryState;
  void auth_attempt(std::shared_ptr<AuthRetryState> state, int attempt);
  /// Issues `method` with the retry policy when set, one-shot otherwise.
  void idempotent_call(net::NodeId dst, std::uint32_t method,
                       sim::Payload args, sim::Time timeout,
                       net::Endpoint::ResponseFn on_response);

  net::Endpoint* endpoint_;
  gsi::ClientContext gsi_;
  std::optional<net::RetryPolicy> retry_;
  std::uint64_t next_auth_stream_ = 1;
  std::unordered_map<JobId, StateFn> watchers_;
  /// Per gatekeeper: job requests awaiting their reply, and the unclaimed
  /// state changes that arrived meanwhile.
  struct AwaitingAccept {
    int submissions = 0;
    std::vector<JobStateChange> early;
  };
  std::unordered_map<net::NodeId, AwaitingAccept> awaiting_;
};

}  // namespace grid::gram
