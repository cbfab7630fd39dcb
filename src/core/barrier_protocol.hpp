// DUROC barrier wire protocol (co-allocator <-> application processes).
//
// Check-in (process -> co-allocator) carries the application's own startup
// verdict — per §3.2 "it is not sufficient that the local operating system
// ... tell us that the process has started successfully; we need to hear
// from the application itself".  Release and abort flow the other way.
// Processes find their co-allocator through environment variables injected
// into the subjob's RSL, exactly as DUROC did.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/runtime.hpp"
#include "core/types.hpp"
#include "gram/job.hpp"
#include "simkit/annotate.hpp"
#include "simkit/codec.hpp"

namespace grid::core {

/// Notification kinds (0x400 block reserved for the barrier protocol).
enum BarrierNotify : std::uint32_t {
  kNotifyCheckin = 0x401,  // process -> co-allocator
  kNotifyRelease = 0x402,  // co-allocator -> process
  kNotifyAbort = 0x403,    // co-allocator -> process (terminate)
};

/// Environment variables injected into every co-allocated subjob.
namespace env {
inline constexpr std::string_view kContact = "GRID_DUROC_CONTACT";
inline constexpr std::string_view kRequest = "GRID_DUROC_REQUEST";
inline constexpr std::string_view kSubjob = "GRID_DUROC_SUBJOB";
}  // namespace env

struct GRID_HOT CheckinMessage {
  RequestId request = 0;
  SubjobHandle subjob = 0;
  gram::JobId gram_job = 0;  // incarnation check: stale check-ins dropped
  std::int32_t rank = 0;
  bool ok = true;
  std::string message;  // application diagnostic on failure

  void encode(util::Writer& w) const;
  static CheckinMessage decode(util::Reader& r);
};

// A release (kNotifyRelease) is the request id (u64) followed by the
// process's ReleaseInfo encoding; the process reads it in place with a
// ReleaseView.

struct AbortMessage {
  RequestId request = 0;
  std::string reason;

  void encode(util::Writer& w) const;
  static AbortMessage decode(util::Reader& r);
};

}  // namespace grid::core
