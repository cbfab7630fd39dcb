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
#include "simkit/idmap.hpp"
#include "simkit/status.hpp"

namespace grid::gram {

class Client {
 public:
  /// The client owns the notify registration on `endpoint`; use one Client
  /// per endpoint.
  Client(net::Endpoint& endpoint, const gsi::CertificateAuthority& ca,
         gsi::Credential identity, gsi::CostModel gsi_costs = {});
  /// Cancels the backoff timer of every retried operation.
  ~Client();

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
  /// the server.  nullopt restores one-shot calls.  Destroying the client
  /// or crashing its host ends a retried operation silently.
  void set_retry_policy(std::optional<net::RetryPolicy> policy) {
    retry_ = policy;
  }

  /// Submits `rsl` (a '&' conjunction fragment) to the gatekeeper.
  /// `on_accepted` fires once with the job id or an error; `on_state`
  /// (optional) then receives every state transition.  `timeout` bounds
  /// each protocol phase (handshake round trips and the request RPC).
  void submit(net::NodeId gatekeeper, std::string rsl, sim::Time timeout,
              AcceptedFn on_accepted, StateFn on_state = nullptr);

  /// Cancels a job at the gatekeeper that accepted it, which its id names
  /// (GRAM's cancel takes only the job contact).
  void cancel(JobId job, sim::Time timeout, DoneFn on_done);

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

  /// Jobs with a state callback attached.
  std::size_t watcher_count() const { return watchers_.size(); }
  /// State changes buffered for accept replies still in flight.
  std::size_t buffered_change_count() const;
  /// Retried operations in flight (a crash's are dropped lazily).
  std::size_t retry_count() const { return retries_.size(); }

 private:
  void on_state_notify(net::NodeId src, util::Reader& payload);
  /// A job request to `gatekeeper` got its reply (or failed): hands the
  /// buffered changes of `job` (0 = none) to its watcher, then drops the
  /// gatekeeper's buffer if no other submission to it is waiting.
  void settle_submission(net::NodeId gatekeeper, JobId job);
  /// An operation under the retry policy, a GSI handshake (kHandshake) or
  /// an idempotent call, with its jitter stream and its backoff timer.
  static constexpr std::uint32_t kHandshake = 0;
  struct Retry {
    net::NodeId dst = net::kInvalidNode;
    std::uint32_t method = kHandshake;
    sim::Payload args;      // a call's frozen args, share()d into attempts
    sim::Time timeout = 0;  // a handshake's bound on each round trip
    net::RetrySchedule schedule;
    int attempt = 0;  // attempts issued so far
    sim::EventId backoff;
    gsi::ClientContext::DoneFn on_session;  // a handshake's outcome
    DoneFn on_done;                         // a call's outcome
    Retry(const net::RetryPolicy& policy, std::uint64_t stream)
        : schedule(policy, stream) {}
  };

  /// The GSI handshake, re-tried whole on timeout under a retry policy (an
  /// abandoned half-open exchange only leaves server state that expires).
  void authenticate(net::NodeId gatekeeper, sim::Time timeout,
                    gsi::ClientContext::DoneFn on_done);
  /// A cancel verb naming `id`: idempotent, so re-issued on timeout under
  /// a retry policy.
  void send_cancel(net::NodeId gatekeeper, std::uint32_t method,
                   std::uint64_t id, sim::Time timeout, DoneFn on_done);
  /// The retry loop: files `retry` and issues attempts until one ends it.
  void start(Retry retry);
  void issue(std::uint64_t retry);
  void on_outcome(std::uint64_t retry, const util::Status& status,
                  util::Result<gsi::Session>* session);
  /// Ends every retried operation if the endpoint crashed since they
  /// began (each began after the last such check); true if it did.
  bool drop_retries_if_crashed();

  net::Endpoint* endpoint_;
  gsi::ClientContext gsi_;
  std::optional<net::RetryPolicy> retry_;
  std::uint64_t next_auth_stream_ = 1;
  sim::IdSlab<Retry> retries_;
  std::uint64_t next_retry_ = 1;
  std::uint32_t crashes_seen_;
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
