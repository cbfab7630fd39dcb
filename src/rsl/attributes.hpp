// Typed view of a subjob specification.
//
// Maps between the untyped RSL relation set and the attributes the resource
// management architecture defines (paper [6] §4 and Fig. 1 of this paper):
// resourceManagerContact, count, executable, arguments, environment,
// subjobStartType, label, ...  Unknown attributes are preserved verbatim so
// co-allocators can pass application-specific relations through to local
// managers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rsl/ast.hpp"
#include "simkit/status.hpp"
#include "simkit/time.hpp"

namespace grid::rsl {

/// Canonical names of the well-known attributes.
namespace attr {
inline constexpr std::string_view kResourceManagerContact =
    "resourcemanagercontact";
inline constexpr std::string_view kCount = "count";
inline constexpr std::string_view kExecutable = "executable";
inline constexpr std::string_view kArguments = "arguments";
inline constexpr std::string_view kEnvironment = "environment";
inline constexpr std::string_view kDirectory = "directory";
inline constexpr std::string_view kStdout = "stdout";
inline constexpr std::string_view kStderr = "stderr";
inline constexpr std::string_view kMaxWallTime = "maxwalltime";  // minutes
inline constexpr std::string_view kJobType = "jobtype";
inline constexpr std::string_view kSubjobStartType = "subjobstarttype";
inline constexpr std::string_view kLabel = "label";
inline constexpr std::string_view kReservationId = "reservationid";
}  // namespace attr

/// DUROC subjob commitment category (paper §3.2).
enum class SubjobStartType {
  kRequired,     // failure aborts the whole computation
  kInteractive,  // failure triggers a callback; agent may edit the request
  kOptional,     // failure is ignored; subjob joins if and when it starts
};

std::string to_string(SubjobStartType t);
util::Result<SubjobStartType> parse_start_type(std::string_view text);

/// Job process arrangement requested from the local manager.
enum class JobType {
  kMultiple,  // count independent processes (default)
  kMpi,       // processes started as one parallel job
  kSingle,    // one process regardless of count
};

std::string to_string(JobType t);
util::Result<JobType> parse_job_type(std::string_view text);

/// An environment entry set at print time: (NAME, value).
using EnvVar = std::pair<std::string_view, std::string_view>;

/// A fully-typed subjob description.
struct JobRequest {
  std::string resource_manager_contact;  // required
  std::string executable;                // required
  std::int32_t count = 1;
  std::vector<std::string> arguments;
  std::vector<std::pair<std::string, std::string>> environment;
  std::string directory;
  std::string stdout_path;
  std::string stderr_path;
  std::optional<sim::Time> max_wall_time;
  JobType job_type = JobType::kMultiple;
  SubjobStartType start_type = SubjobStartType::kRequired;
  std::string label;
  /// Binds the job to a previously acquired advance reservation on the
  /// target resource manager (paper §5 co-reservation); 0 = best effort.
  std::uint64_t reservation_id = 0;

  /// Relations with attributes this layer does not interpret, preserved in
  /// order for pass-through to the local resource manager.
  std::vector<Relation> extras;

  /// Extracts a typed request from a conjunction spec.  Fails on missing
  /// required attributes, non-'=' operators on known attributes, malformed
  /// counts, or unknown enum values.
  static util::Result<JobRequest> from_spec(const Spec& conj);

  /// Rebuilds an equivalent conjunction spec (canonical attribute order,
  /// extras appended last).  Programs print with to_rsl(); this tree is the
  /// reference the tests hold that print to.
  Spec to_spec() const;

  /// The canonical text of this request, printed without building a tree:
  /// the bytes to_spec().to_string() writes for a copy whose environment
  /// first drops every entry named in `set_env` and then appends
  /// `set_env`'s entries in order.
  std::string to_rsl(std::span<const EnvVar> set_env = {}) const;

  bool operator==(const JobRequest& other) const = default;
};

/// Parses a '+' multi-request into typed subjob descriptions.
util::Result<std::vector<JobRequest>> parse_job_requests(const Spec& multi);

}  // namespace grid::rsl
