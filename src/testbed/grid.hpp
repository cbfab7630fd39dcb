// Testbed assembly: builds a complete simulated grid in one call.
//
// A Grid owns the simulation engine, the network, the security
// infrastructure (CA, gridmap), the shared NIS server, the executable
// registry, and a set of hosts (local scheduler + GRAM gatekeeper each).
// Benches, tests, and examples construct a Grid, install application
// executables, create a co-allocator, and run the event loop.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/coallocator.hpp"
#include "gram/gatekeeper.hpp"
#include "gram/nis.hpp"
#include "gsi/credential.hpp"
#include "net/network.hpp"
#include "sched/batch.hpp"
#include "sched/fork.hpp"
#include "sched/reservation.hpp"
#include "simkit/engine.hpp"
#include "testbed/costmodel.hpp"

namespace grid::testbed {

/// Which local scheduler a host runs.
enum class SchedulerKind {
  kFork,         // queue-less fork starts (the §4.2 benchmark setup)
  kFcfs,         // space-shared FCFS batch queue
  kBackfill,     // FCFS + EASY backfill
  kReservation,  // FCFS + advance reservations
};

struct HostSpec {
  std::string name;
  std::int32_t processors = 64;
  SchedulerKind scheduler = SchedulerKind::kFork;
  /// Multiplies this host's service costs (GSI, gatekeeper, fork) relative
  /// to the grid cost model — heterogeneous testbeds give each resource a
  /// different speed.  1.0 uses the grid model untouched.
  double cost_scale = 1.0;
};

/// One resource: a local scheduler plus its GRAM gatekeeper.
class Host {
 public:
  Host(class Grid& grid, const HostSpec& spec);

  const std::string& name() const { return spec_.name; }
  const HostSpec& spec() const { return spec_; }
  net::NodeId contact() const { return gatekeeper_->contact(); }
  gram::Gatekeeper& gatekeeper() { return *gatekeeper_; }
  sched::LocalScheduler& scheduler() { return *scheduler_; }

  /// The concrete scheduler, when the experiment needs policy-specific
  /// operations (reservations, the free-slot profile); nullptr on kind
  /// mismatch.
  sched::BatchScheduler* batch_scheduler();
  sched::ReservationScheduler* reservation_scheduler();

  /// Crashes / restores this host (gatekeeper and all its jobs).
  void crash();
  void restore();
  bool is_up() const;

 private:
  class Grid* grid_;
  HostSpec spec_;
  std::unique_ptr<sched::LocalScheduler> scheduler_;
  std::unique_ptr<gram::Gatekeeper> gatekeeper_;
};

class Grid {
 public:
  /// `shards` exists only for gridbench/harness.cpp, which passes 1 and
  /// changes only together with the benchmark; the next benchmark change
  /// removes the parameter.  Any value other than 1 aborts in every build.
  explicit Grid(CostModel costs = CostModel::paper(),
                std::uint64_t seed = 0x9e3779b9, int shards = 1);
  ~Grid();

  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  sim::Engine& engine() { return engine_; }
  net::Network& network() { return network_; }
  const CostModel& costs() const { return costs_; }
  gsi::CertificateAuthority& ca() { return ca_; }
  gsi::GridMap& gridmap() { return gridmap_; }
  gram::ExecutableRegistry& executables() { return executables_; }
  gram::NisServer& nis() { return *nis_; }

  /// Adds a host; names must be unique (they are the RSL contact strings).
  Host& add_host(const HostSpec& spec);
  Host& add_host(const std::string& name, std::int32_t processors = 64,
                 SchedulerKind scheduler = SchedulerKind::kFork);
  Host* host(const std::string& name);
  std::size_t host_count() const { return hosts_.size(); }

  /// resourceManagerContact -> gatekeeper address, for co-allocators.
  core::ContactResolver resolver();

  /// Issues a user credential valid for the whole simulation and maps the
  /// subject in the gridmap.
  gsi::Credential make_user(const std::string& subject,
                            const std::string& local_user);

  /// Builds a ready-to-use co-allocator for `subject` (resolver installed).
  std::unique_ptr<core::Coallocator> make_coallocator(
      const std::string& name, const std::string& subject,
      core::RequestConfig defaults = {});

  /// Runs the event loop to completion / until a deadline.
  void run() { engine_.run(); }
  void run_until(sim::Time deadline) { engine_.run_until(deadline); }

 private:
  friend class Host;

  CostModel costs_;
  sim::Engine engine_;
  net::Network network_;
  gsi::CertificateAuthority ca_;
  gsi::GridMap gridmap_;
  gram::ExecutableRegistry executables_;
  std::unique_ptr<gram::NisServer> nis_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::unordered_map<std::string, Host*> by_name_;
};

/// RSL text helpers used across benches / tests / examples.
std::string rsl_subjob(const std::string& contact, std::int32_t count,
                       const std::string& executable,
                       const std::string& start_type = "required",
                       const std::string& label = "");
std::string rsl_multi(const std::vector<std::string>& subjobs);

}  // namespace grid::testbed
