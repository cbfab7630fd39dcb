// GSI mutual authentication protocol.
//
// A three-message handshake between a client endpoint and a server
// endpoint, with configurable CPU costs on both sides (Figure 3 attributes
// ~0.5 s of each GRAM request to this exchange):
//
//   client --(INIT: client credential, nonce)--------------> server
//   client <-(server credential, challenge)----------------- server
//   client --(FINAL: challenge response)--------------------> server
//   client <-(session token)--------------------------------- server
//
// On success the client holds a Session token that authorizes subsequent
// calls (GRAM validates it on every job request).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "gsi/credential.hpp"
#include "net/rpc.hpp"
#include "simkit/idmap.hpp"
#include "simkit/status.hpp"
#include "simkit/time.hpp"

namespace grid::gsi {

/// RPC method ids (0x100 block reserved for GSI).
enum Method : std::uint32_t {
  kMethodInit = 0x101,
  kMethodFinal = 0x102,
};

/// CPU costs of the handshake operations.  Defaults are calibrated so a
/// handshake over a 2 ms network totals ~0.5 s, matching Figure 3.
struct CostModel {
  sim::Time client_sign = 120 * sim::kMillisecond;
  sim::Time server_verify = 130 * sim::kMillisecond;
  sim::Time client_verify = 100 * sim::kMillisecond;
  sim::Time server_issue = 120 * sim::kMillisecond;
};

/// An established security context.  The server holds one per token for
/// an hour, so it keeps only what its readers read: the client presents
/// the token, and the gatekeeper runs the job as the local account.
struct Session {
  std::uint64_t token = 0;
  std::string local_user;  // gridmap-resolved local account
  sim::Time expires = 0;
};

/// Server half: attach to an Endpoint to serve handshakes and validate
/// session tokens presented by later requests.
class ServerContext {
 public:
  /// `ca` and `gridmap` must outlive the context.  `identity` is the
  /// server's own credential presented to clients.
  ServerContext(net::Endpoint& endpoint, const CertificateAuthority& ca,
                const GridMap& gridmap, Credential identity,
                CostModel costs = {});

  /// Looks up an established session; kPermissionDenied if unknown/expired.
  /// A session dropped after its expiry still answers "session expired".
  util::Result<Session> validate(std::uint64_t token) const;

  /// Sessions held: every unexpired one, plus expired ones the next
  /// handshake will drop.
  std::size_t session_count() const {
    return sessions_ ? sessions_->size() : 0;
  }

  /// Handshakes past INIT still waiting for their FINAL: every one younger
  /// than a session lifetime, plus older ones the next INIT will drop.
  std::size_t pending_handshake_count() const { return pending_.size(); }

  const CostModel& costs() const { return costs_; }

 private:
  void handle_init(net::NodeId caller, std::uint64_t call_id,
                   util::Reader& args);
  void handle_final(net::NodeId caller, std::uint64_t call_id,
                    util::Reader& args);

  net::Endpoint* endpoint_;
  const CertificateAuthority* ca_;
  const GridMap* gridmap_;
  Credential identity_;
  CostModel costs_;
  std::uint64_t next_token_ = 1;
  // Challenges outstanding, keyed by handshake id.  Ids are issued in INIT
  // order, so the oldest handshakes sit at the front: an INIT drops those
  // whose FINAL has not come within a session lifetime (a FINAL for them
  // then meets "unknown handshake", as for an id never issued).  INIT
  // resolves the local account; the gridmap never unmaps a subject, so
  // FINAL needs only the response it expects.
  struct PendingHandshake {
    std::string local_user;
    std::uint64_t response = 0;  // challenge_response(challenge, subject)
    sim::Time issued = 0;
  };
  std::map<std::uint64_t, PendingHandshake> pending_;
  std::uint64_t next_handshake_ = 1;
  /// Sessions in token order, which is also expiry order (every session
  /// lives one hour from issue), so expired ones leave from the front and
  /// free their memory: slot i holds token base_token_ + i.  Made at the
  /// first session, since an empty std::deque already allocates and a
  /// grid builds a gatekeeper per host.
  std::optional<std::deque<Session>> sessions_;
  std::uint64_t base_token_ = 1;
};

/// Expected challenge response: ties the challenge to the subject.
std::uint64_t challenge_response(std::uint64_t challenge,
                                 std::string_view subject);

/// Client half: runs handshakes.  `on_done` fires exactly once with the
/// session or an error (authentication failure, timeout, malformed reply),
/// unless destroying the context or crashing its host ends the handshake
/// first, silently.
class ClientContext {
 public:
  ClientContext(net::Endpoint& endpoint, const CertificateAuthority& ca,
                Credential identity, CostModel costs = {});
  /// Cancels the CPU-delay timer of every handshake in flight.
  ~ClientContext();
  ClientContext(const ClientContext&) = delete;
  ClientContext& operator=(const ClientContext&) = delete;

  using DoneFn = std::function<void(util::Result<Session>)>;

  /// Starts a handshake with the server at `server`.  `timeout` bounds each
  /// round trip.
  void authenticate(net::NodeId server, sim::Time timeout, DoneFn on_done);

 private:
  /// A handshake in flight: its continuations' state and CPU-delay timer.
  struct Flow {
    net::NodeId server = net::kInvalidNode;
    sim::Time timeout = 0;
    DoneFn on_done;
    sim::EventId timer;
    Credential server_cred;  // from the INIT reply, verified after a delay
    std::uint64_t handshake_id = 0;
    std::uint64_t challenge = 0;
  };

  /// Ends every handshake if the endpoint crashed since they began (each
  /// began after the last such check); true if it did.
  bool drop_flows_if_crashed();
  void finish(std::uint64_t flow, util::Result<Session> result);
  sim::Engine& engine() { return endpoint_->engine(); }

  net::Endpoint* endpoint_;
  const CertificateAuthority* ca_;
  Credential identity_;
  CostModel costs_;
  sim::IdSlab<Flow> flows_;
  std::uint64_t next_flow_ = 1;
  std::uint32_t crashes_seen_;
};

}  // namespace grid::gsi
