#include "core/grab.hpp"

#include <memory>

#include "rsl/parser.hpp"

namespace grid::core {

util::Result<RequestId> GrabAllocator::allocate(
    const std::string& rsl_text, RequestCallbacks callbacks,
    std::optional<RequestConfig> config) {
  auto jobs = rsl::parse_multi_request(rsl_text);
  if (!jobs.is_ok()) return jobs.status();
  return allocate(jobs.take(), std::move(callbacks), config);
}

util::Result<RequestId> GrabAllocator::allocate(
    std::vector<rsl::JobRequest> subjobs, RequestCallbacks callbacks,
    std::optional<RequestConfig> config) {
  if (subjobs.empty()) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "empty co-allocation request");
  }
  // The id is only known after create_request, so the terminal callback
  // reads it through shared state.  Destruction waits one event because a
  // request must never die inside its own callback (DESIGN §5.7).
  auto id = std::make_shared<RequestId>(0);
  callbacks.on_terminal = [mech = mech_, id,
                           user = std::move(callbacks.on_terminal)](
                              const util::Status& status) {
    if (user) user(status);
    mech->engine().schedule_after(
        0, [mech, request = *id] { mech->destroy_request(request); });
  };
  CoallocationRequest* request =
      config.has_value() ? mech_->create_request(std::move(callbacks), *config)
                         : mech_->create_request(std::move(callbacks));
  *id = request->id();
  for (rsl::JobRequest& j : subjobs) {
    j.start_type = rsl::SubjobStartType::kRequired;  // atomic semantics
    request->add_subjob(std::move(j));  // cannot fail while editing
  }
  request->start();
  // No editing window: commit immediately; the request releases iff every
  // subjob checks in, and any failure aborts everything.  Commit fails only
  // when a subjob already failed inside start(), and on_terminal said so.
  request->commit();
  return *id;
}

}  // namespace grid::core
