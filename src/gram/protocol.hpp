// GRAM wire protocol: method ids and message encodings.
//
// A GRAM interaction is: GSI handshake (methods 0x101/0x102), then a job
// request carrying the session token, an RSL fragment, and a callback
// contact; the gatekeeper replies with a job id and pushes state-change
// notifications to the callback contact thereafter.
#pragma once

#include <cstdint>
#include <string>

#include "gram/job.hpp"
#include "net/network.hpp"
#include "simkit/codec.hpp"

namespace grid::gram {

/// RPC method ids (0x200 block reserved for GRAM).
enum Method : std::uint32_t {
  kMethodJobRequest = 0x201,
  kMethodJobCancel = 0x202,
  // 0x203 is retired: it was the job-status query.
  kMethodPing = 0x204,
  // Advance reservation extension (paper §5 / ref [13]): only answered by
  // gatekeepers whose local scheduler supports reservations.
  kMethodReserve = 0x205,
  kMethodReserveCancel = 0x206,
};

struct ReserveArgs {
  std::uint64_t session_token = 0;
  sim::Time start = 0;
  sim::Time end = 0;
  std::int32_t count = 0;

  void encode(util::Writer& w) const;
  static ReserveArgs decode(util::Reader& r);
};

/// Notification kinds (pushed to the callback contact).
enum Notify : std::uint32_t {
  kNotifyJobState = 0x210,
};

struct JobRequestArgs {
  std::uint64_t session_token = 0;
  std::string rsl;                // a '&' conjunction fragment
  net::NodeId callback_contact = net::kInvalidNode;  // 0 = no callbacks

  void encode(util::Writer& w) const;
  static JobRequestArgs decode(util::Reader& r);
};

void encode_state_change(util::Writer& w, const JobStateChange& change);
JobStateChange decode_state_change(util::Reader& r);

}  // namespace grid::gram
