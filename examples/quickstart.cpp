// Quickstart: co-allocate one application across three machines with DUROC.
//
// Builds a simulated grid (three 64-processor machines, a NIS server, a
// certificate authority), installs an application executable, submits a
// multi-resource RSL request through the interactive-transaction
// co-allocator, and reports the allocation timeline.
//
//   $ ./quickstart
#include <cstdio>

#include "app/behaviors.hpp"
#include "core/coallocator.hpp"
#include "testbed/grid.hpp"
#include "testbed/report.hpp"

using namespace grid;

int main() {
  // 1. A grid: three machines two milliseconds away, fork-started jobs
  //    (the paper's §4.2 configuration).
  testbed::Grid grid;
  grid.add_host("mach1", 64);
  grid.add_host("mach2", 64);
  grid.add_host("mach3", 64);

  // 2. An application.  Every process initializes for ~20 ms, runs its
  //    local startup checks, enters the co-allocation barrier, and after
  //    release computes for two virtual seconds.
  app::BarrierStats stats;
  app::StartupProfile profile;
  profile.run_time = 2 * sim::kSecond;
  app::install_app(grid.executables(), "simulation", profile, &stats);

  // 3. A co-allocation request: 32 processes on each machine, all
  //    required — the computation needs all 96 or none.
  auto mechanisms = grid.make_coallocator("agent", "/O=Grid/CN=alice");

  bool released = false;
  util::Status outcome;
  core::CoallocationRequest* request = mechanisms->create_request({
      .on_subjob =
          [&](core::SubjobHandle h, core::SubjobState s, const util::Status&) {
            std::printf("[%8.3fs] subjob %llu -> %s\n",
                        sim::to_seconds(grid.engine().now()),
                        static_cast<unsigned long long>(h),
                        core::to_string(s).c_str());
          },
      .on_released =
          [&](const core::RuntimeConfig& config) {
            released = true;
            std::printf("[%8.3fs] barrier released: %d processes in %zu "
                        "subjobs\n",
                        sim::to_seconds(grid.engine().now()),
                        config.total_processes, config.subjobs.size());
          },
      .on_terminal = [&](const util::Status& status) { outcome = status; },
  });

  const std::string rsl = testbed::rsl_multi({
      testbed::rsl_subjob("mach1", 32, "simulation", "required"),
      testbed::rsl_subjob("mach2", 32, "simulation", "required"),
      testbed::rsl_subjob("mach3", 32, "simulation", "required"),
  });
  std::printf("request: %s\n\n", rsl.c_str());
  if (auto st = request->add_rsl(rsl); !st.is_ok()) {
    std::fprintf(stderr, "bad RSL: %s\n", st.to_string().c_str());
    return 1;
  }

  // 4. Atomically in this case: start, then commit immediately.
  request->start();
  request->commit();
  grid.run();

  // 5. Report.
  testbed::print_heading("quickstart results");
  std::printf("  outcome: %s\n", outcome.to_string().c_str());
  std::printf("  released: %s at %.3fs\n", released ? "yes" : "no",
              sim::to_seconds(request->released_at()));
  auto waits = stats.wait_samples();
  std::printf("  processes released: %lld, completions: %lld\n",
              static_cast<long long>(stats.releases),
              static_cast<long long>(stats.completions));
  std::printf("  barrier wait: min %.3fs  median %.3fs  max %.3fs\n",
              waits.min(), waits.median(), waits.max());
  return outcome.is_ok() && released ? 0 : 1;
}
