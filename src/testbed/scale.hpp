// Grid-at-scale scenario: sustained co-allocation against O(1k) resources.
//
// The paper's experiments (§4) measure one co-allocation at a time against
// a handful of resources.  This scenario family asks the opposite
// question: does the whole stack — information service, broker, GRAM,
// DUROC mechanisms — stay cheap when a computational grid runs at
// production scale?  It assembles:
//
//   - O(1k) heterogeneous resource managers (mixed scheduler policies,
//     16..256 processors, per-host cost scaling);
//   - an open-loop background workload: Poisson arrivals with a diurnal
//     rate profile submitted directly to the local schedulers, O(100k..1M)
//     jobs per simulated day, keeping every queue busy and the published
//     snapshots churning;
//   - a sustained stream of co-allocation transactions (mixed GRAB-style
//     atomic and DUROC-style interactive, 2..N subjobs each) routed
//     through GisClient + ResourceBroker summary queries from a small pool
//     of co-allocation agents.
//
// Everything is driven by the simulation engine and seeded RNG streams:
// two runs with the same spec produce identical metrics, including the
// order-sensitive fingerprint.  The scenario itself never reads wall
// clocks — bench/app_grid_scale measures wall time and RSS around run().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "app/behaviors.hpp"
#include "core/coallocator.hpp"
#include "info/broker.hpp"
#include "info/gis.hpp"
#include "sched/infoservice.hpp"
#include "sched/predict.hpp"
#include "simkit/rng.hpp"
#include "testbed/grid.hpp"

namespace grid::testbed {

/// One simulated day; the diurnal rate profile repeats on this period.
inline constexpr sim::Time kSimDay = 24 * sim::kHour;

struct ScaleSpec {
  int resources = 1000;
  std::uint64_t seed = 0x5ca1eULL;
  sim::Time duration = kSimDay;

  // Background (locally submitted) workload.
  double background_jobs_per_day = 950'000.0;
  /// lambda(t) = mean * (1 + amplitude * sin(2*pi*t / day)).
  double diurnal_amplitude = 0.6;
  sim::Time background_mean_runtime = 6 * sim::kMinute;
  std::int32_t background_max_count = 16;

  // Co-allocation transactions.
  double transactions_per_day = 24'000.0;
  double atomic_fraction = 0.5;  // remainder run DUROC-interactive
  int min_subjobs = 2;
  int max_subjobs = 5;
  std::int32_t min_count = 2;
  std::int32_t max_count = 12;
  std::size_t broker_candidates = 12;
  int agents = 4;

  // Information plane.
  sim::Time publish_interval = 30 * sim::kSecond;
  bool gis_payload_cache = true;

  /// CI-sized preset: same shape, ~2 orders of magnitude fewer jobs.
  static ScaleSpec quick();
};

struct ScaleMetrics {
  sim::Time simulated = 0;
  std::uint64_t events_executed = 0;

  std::uint64_t background_submitted = 0;
  std::uint64_t background_rejected = 0;
  std::uint64_t background_completed = 0;

  std::uint64_t txn_attempted = 0;
  std::uint64_t txn_placed = 0;        // broker found k placements
  std::uint64_t txn_select_failed = 0;
  std::uint64_t txn_released = 0;      // barrier released
  std::uint64_t txn_done = 0;          // terminal OK
  std::uint64_t txn_aborted = 0;       // terminal error
  std::uint64_t subjobs_requested = 0;

  sched::LoadInformationService::Stats info;
  std::uint64_t gis_queries_served = 0;
  info::GisServer::CacheStats gis_cache;

  /// Order-sensitive digest of the run (completion/terminal sequence);
  /// equal specs must produce equal fingerprints.
  std::uint64_t fingerprint = 0;

  /// Jobs that entered a scheduler: background + co-allocated subjobs.
  std::uint64_t jobs_total() const {
    return background_submitted + subjobs_requested;
  }
};

class ScaleScenario {
 public:
  explicit ScaleScenario(ScaleSpec spec);
  ~ScaleScenario();

  ScaleScenario(const ScaleScenario&) = delete;
  ScaleScenario& operator=(const ScaleScenario&) = delete;

  Grid& grid() { return grid_; }

  /// Runs the scenario for spec.duration and reports.  Call once.
  ScaleMetrics run();

 private:
  struct Agent {
    std::unique_ptr<core::Coallocator> coallocator;
    std::unique_ptr<info::GisClient> gis;
    std::unique_ptr<info::ResourceBroker> broker;
  };

  void schedule_background_arrival();
  void schedule_transaction_arrival();
  void submit_background_job();
  void launch_transaction();
  /// Thinning acceptance for the non-homogeneous Poisson processes.
  bool accept_arrival(sim::Time now);
  void mix(std::uint64_t value);

  ScaleSpec spec_;
  Grid grid_;
  std::vector<Host*> hosts_;  // creation order
  std::unique_ptr<sched::LoadInformationService> service_;
  std::unique_ptr<info::GisServer> gis_server_;
  sched::AggregateWorkPredictor predictor_;
  std::vector<Agent> agents_;

  sim::Rng arrivals_rng_;
  sim::Rng background_rng_;
  sim::Rng txn_rng_;
  std::uint64_t next_background_id_;

  ScaleMetrics metrics_;
  std::uint64_t txn_seq_ = 0;
  bool ran_ = false;
};

}  // namespace grid::testbed
