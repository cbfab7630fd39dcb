// Simulated application processes.
//
// When the local scheduler starts a job, the job manager "exec"s one
// process per requested processor.  What the process *does* is pluggable:
// executables are looked up by name in an ExecutableRegistry, mirroring a
// real filesystem of application binaries.  Process behaviours implement
// application-defined startup checks, the DUROC barrier call, failure
// modes (crash / hang / slow start), and post-release computation — the
// application half of the paper's co-allocation protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "gram/job.hpp"
#include "net/network.hpp"
#include "simkit/engine.hpp"
#include "simkit/status.hpp"

namespace grid::gram {

/// Services the job manager exposes to a running process.
class ProcessApi {
 public:
  virtual ~ProcessApi() = default;

  virtual sim::Engine& engine() = 0;
  virtual net::Network& network() = 0;

  virtual JobId job() const = 0;
  virtual const std::string& host_name() const = 0;
  /// Rank of this process within its job (0 .. count-1).
  virtual std::int32_t local_rank() const = 0;
  /// Number of processes in this job.
  virtual std::int32_t local_count() const = 0;

  virtual const std::vector<std::string>& arguments() const = 0;
  /// Environment lookup; empty string when unset.
  virtual std::string getenv(std::string_view name) const = 0;

  /// Terminates this process.  `ok` false marks the job as failed with
  /// `message`.  Must be called at most once; the behaviour object may be
  /// destroyed during the call.
  virtual void exit(bool ok, std::string message = "") = 0;
};

/// A process implementation.  `start` is the exec entry point; the
/// behaviour then drives itself with scheduled events through `api`
/// (valid until exit or termination).
class ProcessBehavior {
 public:
  virtual ~ProcessBehavior() = default;

  virtual void start(ProcessApi& api) = 0;

  /// Delivery of a kill signal (job cancel, wall-time limit, DUROC abort).
  /// After this call the process is gone; do not call api.exit().
  virtual void on_terminate() {}
};

using ProcessFactory = std::function<std::unique_ptr<ProcessBehavior>()>;

/// Maps executable names to process implementations, per host or shared.
class ExecutableRegistry {
 public:
  void install(std::string executable, ProcessFactory factory);
  bool contains(const std::string& executable) const;

  /// Instantiates a behaviour; kNotFound for unknown executables (the
  /// "executable does not exist on that machine" failure mode).
  util::Result<std::unique_ptr<ProcessBehavior>> create(
      const std::string& executable) const;

 private:
  std::unordered_map<std::string, ProcessFactory> factories_;
};

}  // namespace grid::gram
