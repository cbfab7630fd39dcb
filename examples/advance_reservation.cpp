// Advance co-reservation through the full protocol stack (§2.2, §5 —
// implemented here as the extension the paper argues for, following its
// reference [13]).
//
// Two machines are busy with batch work.  A co-reservation agent acquires
// matching windows on both *over the network* (GSI-authenticated GRAM
// reservation requests, two-phase all-or-nothing), binds a DUROC request
// to the reservations with the RSL reservationId attribute, and the
// co-allocated application starts on both machines at the same instant —
// which best-effort queueing cannot guarantee.
//
//   $ ./advance_reservation
#include <cstdio>

#include "app/behaviors.hpp"
#include "core/coallocator.hpp"
#include "core/coreserver.hpp"
#include "testbed/grid.hpp"

using namespace grid;

int main() {
  testbed::Grid grid;
  grid.add_host("mpp-east", 64, testbed::SchedulerKind::kReservation);
  grid.add_host("mpp-west", 64, testbed::SchedulerKind::kReservation);
  app::BarrierStats stats;
  app::install_app(grid.executables(), "app",
                   {.run_time = 30 * sim::kMinute}, &stats);

  // Existing batch load on both machines.
  sched::JobId next_id = 1;
  sim::Rng rng(2026);
  for (const char* name : {"mpp-east", "mpp-west"}) {
    for (int i = 0; i < 6; ++i) {
      sched::JobDescriptor d;
      d.id = next_id++;
      d.count = static_cast<std::int32_t>(rng.uniform_int(24, 64));
      d.runtime = rng.exponential_time(20 * sim::kMinute);
      d.estimated_runtime = d.runtime;
      grid.host(name)->scheduler().submit(d, nullptr, nullptr);
    }
  }
  std::printf("both machines carry batch queues; best-effort pieces would "
              "start at\nunpredictable, different times.\n\n");

  core::RequestConfig defaults;
  defaults.startup_timeout = 12 * sim::kHour;  // covers the window wait
  auto mechanisms =
      grid.make_coallocator("agent", "/O=Grid/CN=reserve", defaults);

  // Phase 1: network co-reservation (each reserve RPC pays GSI + latency).
  core::NetworkCoReserver reserver(mechanisms->gram(), grid.resolver());
  core::NetworkCoReserver::Options options;
  options.duration = sim::kHour;
  options.count = 32;
  options.step = 15 * sim::kMinute;
  options.horizon = 24 * sim::kHour;

  bool released = false;
  sim::Time window = -1;
  std::vector<std::pair<std::string, sim::Time>> active;
  core::CoallocationRequest* req = nullptr;
  reserver.acquire(
      {"mpp-east", "mpp-west"}, options,
      [&](util::Result<std::vector<core::NetworkCoReserver::Hold>> holds) {
        if (!holds.is_ok()) {
          std::fprintf(stderr, "co-reservation failed: %s\n",
                       holds.status().to_string().c_str());
          return;
        }
        window = holds.value().front().start;
        std::printf("co-reservation acquired over GRAM: 32 processors on "
                    "each machine at t=%.0f min\n",
                    sim::to_seconds(window) / 60);
        // Phase 2: co-allocate into the windows (reservationId binding).
        auto jobs = core::NetworkCoReserver::build_requests(
            holds.value(), 32, "app", rsl::SubjobStartType::kRequired);
        req = mechanisms->create_request(
            {.on_subjob =
                 [&](core::SubjobHandle h, core::SubjobState s,
                     const util::Status&) {
                   if (s == core::SubjobState::kActive) {
                     active.emplace_back(
                         req->subjob_request(h).value()
                             .resource_manager_contact,
                         grid.engine().now());
                   }
                 },
             .on_released =
                 [&](const core::RuntimeConfig& config) {
                   released = true;
                   std::printf("\n[%6.1f min] barrier released: %d processes "
                               "across %zu machines\n",
                               sim::to_seconds(grid.engine().now()) / 60,
                               config.total_processes,
                               config.subjobs.size());
                 },
             .on_terminal = nullptr});
        std::printf("submitting DUROC request bound to the reservations:\n");
        for (auto& j : jobs) {
          std::printf("  %s\n", j.to_rsl().c_str());
          req->add_subjob(std::move(j));
        }
        req->commit();
      });
  grid.run();

  std::printf("\nsubjobs went ACTIVE at:\n");
  for (const auto& [name, at] : active) {
    std::printf("  %-9s %7.2f min\n", name.c_str(),
                sim::to_seconds(at) / 60);
  }
  const bool simultaneous = active.size() == 2 &&
                            active[0].second == active[1].second;
  std::printf("\nsimultaneous start inside the co-reserved window: %s\n",
              simultaneous && released ? "yes" : "NO");
  return simultaneous && released ? 0 : 1;
}
