// §4.3 — the large-scale application experiences.
//
// Reproduces two results:
//
//  1. The SF-Express record run: "DUROC was used to start the largest
//     distributed interactive simulation ever performed, starting a
//     computation on 1386 processors distributed across 13 different
//     parallel supercomputers ... there were difficulties starting some
//     components ... and DUROC was successfully used to configure around
//     these failures."
//
//  2. The GRAB-era claim: "the cost of allocation, monitoring, and control
//     operations was reduced from literally tens of minutes when performed
//     manually to a few keystrokes" — modelled as a manual operator who
//     needs ~2 minutes of interaction per machine (login, submit, verify)
//     versus the co-allocator's protocol cost.
#include <cstdio>
#include <numeric>

#include "app/behaviors.hpp"
#include "core/strategies.hpp"
#include "simkit/trialpool.hpp"
#include "testbed/grid.hpp"
#include "testbed/report.hpp"

using namespace grid;

namespace {

const std::vector<std::int32_t> kSizes = {128, 128, 128, 128, 108, 108, 108,
                                          108, 108, 108, 104, 61, 61};

struct ScaleResult {
  bool released = false;
  double release_time_s = -1;
  int failures_configured_around = 0;
  std::int32_t processes = 0;
};

ScaleResult run_sf_express(int broken_machines, std::uint64_t seed) {
  testbed::Grid grid(testbed::CostModel::paper(), seed);
  app::BarrierStats stats;
  for (std::size_t i = 0; i < kSizes.size(); ++i) {
    grid.add_host("super" + std::to_string(i + 1), 256);
  }
  for (int i = 0; i < broken_machines + 2; ++i) {
    grid.add_host("spare" + std::to_string(i + 1), 256);
  }
  app::StartupProfile sim_profile;
  sim_profile.init_delay = 3 * sim::kMinute;
  sim_profile.init_jitter = sim::kMinute;
  app::install_app(grid.executables(), "sf", sim_profile, &stats, seed);
  // Machine failure, the §4.3 failure mode: the first `broken_machines`
  // supercomputers are down when the request arrives.
  for (int i = 0; i < broken_machines; ++i) {
    grid.host("super" + std::to_string(i + 1))->crash();
  }

  core::RequestConfig defaults;
  defaults.startup_timeout = 30 * sim::kMinute;
  defaults.rpc_timeout = 15 * sim::kSecond;
  auto mech = grid.make_coallocator("agent", "/CN=sf", defaults);
  std::vector<std::string> spares;
  for (int i = 0; i < broken_machines + 2; ++i) {
    spares.push_back("spare" + std::to_string(i + 1));
  }
  ScaleResult result;
  core::ReplacementAgent agent(
      *mech, {.spare_contacts = spares},
      {.on_subjob =
           [&](core::SubjobHandle, core::SubjobState s, const util::Status&) {
             if (s == core::SubjobState::kFailed) {
               ++result.failures_configured_around;
             }
           },
       .on_released =
           [&](const core::RuntimeConfig& config) {
             result.released = true;
             result.release_time_s = sim::to_seconds(grid.engine().now());
             result.processes = config.total_processes;
           },
       .on_terminal = nullptr});
  for (std::size_t i = 0; i < kSizes.size(); ++i) {
    rsl::JobRequest j;
    j.resource_manager_contact = "super" + std::to_string(i + 1);
    j.executable = "sf";
    j.count = kSizes[i];
    j.start_type = rsl::SubjobStartType::kInteractive;
    agent.request().add_subjob(std::move(j));
  }
  agent.request().start();
  grid.run();
  return result;
}

}  // namespace

int main() {
  const std::int32_t total = std::accumulate(kSizes.begin(), kSizes.end(), 0);
  testbed::print_heading(
      "SF-Express scale run: 1386 processes on 13 supercomputers");
  std::printf("total processes requested: %d (paper: 1386)\n\n", total);

  testbed::Table table({"broken_machines", "released", "processes",
                        "failures_handled", "time_to_release_s"});
  bool all_ok = true;
  // Each broken-machine scenario is an isolated 15-host world; fan them
  // out and report in scenario order.
  sim::TrialPool pool;
  const std::vector<ScaleResult> results = pool.map<ScaleResult>(
      4, [](std::size_t broken) {
        return run_sf_express(static_cast<int>(broken), 42);
      });
  for (int broken : {0, 1, 2, 3}) {
    const ScaleResult& r = results[static_cast<std::size_t>(broken)];
    all_ok = all_ok && r.released && r.processes == total &&
             r.failures_configured_around >= broken;
    table.add_row(
        {testbed::Table::num(static_cast<std::int64_t>(broken)),
         r.released ? "yes" : "no",
         testbed::Table::num(static_cast<std::int64_t>(r.processes)),
         testbed::Table::num(
             static_cast<std::int64_t>(r.failures_configured_around)),
         testbed::Table::num(r.release_time_s, 1)});
  }
  testbed::print_table(table);

  // Manual vs co-allocated operation cost ("tens of minutes" -> seconds of
  // operator effort).  The manual operator serially handles each machine
  // (~2 min each) and restarts the whole procedure when a machine turns
  // out broken; the co-allocator's operator effort is one request.
  testbed::print_heading("allocation operator effort: manual vs GRAB/DUROC");
  const double manual_per_machine_min = 2.0;
  const double manual_min =
      manual_per_machine_min * static_cast<double>(kSizes.size());
  const ScaleResult automated = run_sf_express(1, 7);
  testbed::Table effort({"method", "operator_interaction", "notes"});
  effort.add_row({"manual", testbed::Table::num(manual_min, 0) + " min",
                  "serial logins, resubmits on any failure"});
  effort.add_row({"co-allocator", "one request (seconds)",
                  "protocol time " +
                      testbed::Table::num(automated.release_time_s, 0) +
                      " s, failures handled automatically"});
  testbed::print_table(effort);
  std::printf("\nshape check: full 1386-process ensemble released despite "
              "injected machine failures: %s\n",
              all_ok ? "HOLDS" : "VIOLATED");
  return all_ok ? 0 : 1;
}
