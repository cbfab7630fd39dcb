// Typed subjob specification.
//
// The attributes the resource management architecture defines (paper [6]
// §4 and Fig. 1 of this paper): resourceManagerContact, count, executable,
// arguments, environment, subjobStartType, label, ...  A subjob is a
// JobRequest from the RSL text it arrives as (rsl/parser.hpp) to the job
// manager that runs it; to_rsl() prints it back.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simkit/time.hpp"

namespace grid::rsl {

/// The attributes a subjob may name, in canonical form (lowercase, no
/// underscores) and in to_rsl()'s order.
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

/// Job process arrangement requested from the local manager.
enum class JobType {
  kMultiple,  // count independent processes (default)
  kMpi,       // processes started as one parallel job
  kSingle,    // one process regardless of count
};

std::string to_string(JobType t);

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

  /// The canonical text of this request: a '&' conjunction of one relation
  /// per attribute in `attr`'s order, leaving out empty strings and lists,
  /// an unset wall time, the default job type and reservation 0.  The
  /// environment printed is this one less every entry named in `set_env`,
  /// followed by `set_env`'s entries in order.  parse_job_request() reads
  /// the text back to an equal request.
  std::string to_rsl(std::span<const EnvVar> set_env = {}) const;

  bool operator==(const JobRequest& other) const = default;
};

}  // namespace grid::rsl
