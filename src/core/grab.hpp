// GRAB — the Globus Resource Allocation Broker (paper §4.1).
//
// The atomic transaction co-allocator: "All required resources are
// specified at the time the request is made.  The request succeeds if all
// resources required by the application are allocated.  Otherwise, the
// request fails and none of the resources are acquired."
//
// GRAB is the degenerate configuration of the co-allocation mechanism
// layer: every subjob is forced to `required`, the request is committed
// immediately (no editing window), and any failure or timeout rolls the
// whole allocation back.  Its limitations under realistic failure modes
// (§4.3) are what motivated DUROC.
//
// Abort-fast is the caller's choice: attach a core::HeartbeatDetector to
// the id allocate() returns.  Every subjob is required, so a dead verdict
// aborts the whole transaction at once instead of at the startup deadline.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/coallocator.hpp"
#include "simkit/annotate.hpp"

namespace grid::core {

class GRID_HOT GrabAllocator {
 public:
  explicit GrabAllocator(Coallocator& mechanisms) : mech_(&mechanisms) {}

  /// Starts an atomic co-allocation from RSL text.  subjobStartType
  /// attributes are ignored: every subjob is treated as required.  Without
  /// an explicit config the mechanism layer's defaults apply.  on_released
  /// fires when every resource is acquired, on_terminal once at the end
  /// (OK after the application completes, or the error that rolled the
  /// allocation back).  The request is destroyed one zero-delay event
  /// after on_terminal.  Returns the request's id whenever one was created,
  /// even if it already failed (on_terminal then reported it); an error
  /// only for input rejected before that.
  util::Result<RequestId> allocate(
      const std::string& rsl_text, RequestCallbacks callbacks,
      std::optional<RequestConfig> config = std::nullopt);

  /// Same, from typed subjob descriptions.
  util::Result<RequestId> allocate(
      std::vector<rsl::JobRequest> subjobs, RequestCallbacks callbacks,
      std::optional<RequestConfig> config = std::nullopt);

 private:
  Coallocator* mech_;
};

}  // namespace grid::core
