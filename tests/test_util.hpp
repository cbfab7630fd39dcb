// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "app/behaviors.hpp"
#include "core/coallocator.hpp"
#include "core/grab.hpp"
#include "testbed/grid.hpp"

namespace grid::test {

/// A grid with `hosts` fork-scheduled machines named host1..hostN, the
/// fast cost model, and a standard healthy app installed as "app".
struct SmallGrid {
  explicit SmallGrid(int hosts = 3,
                     testbed::CostModel costs = testbed::CostModel::fast(),
                     app::StartupProfile profile = {}) {
    grid = std::make_unique<testbed::Grid>(costs);
    for (int i = 1; i <= hosts; ++i) {
      grid->add_host("host" + std::to_string(i), 64);
    }
    app::install_app(grid->executables(), "app", profile, &stats);
    coallocator = grid->make_coallocator("agent", "/O=Grid/CN=tester");
  }

  std::string rsl(int count_per_host, const std::string& start_type,
                  int hosts_used = -1) const {
    std::vector<std::string> subs;
    const auto n = hosts_used < 0
                       ? static_cast<int>(grid->host_count())
                       : hosts_used;
    for (int i = 1; i <= n; ++i) {
      subs.push_back(testbed::rsl_subjob("host" + std::to_string(i),
                                         count_per_host, "app", start_type));
    }
    return testbed::rsl_multi(subs);
  }

  std::unique_ptr<testbed::Grid> grid;
  app::BarrierStats stats;
  std::unique_ptr<core::Coallocator> coallocator;
};

/// Records the terminal outcome of a request.
struct Outcome {
  bool released = false;
  bool terminal = false;
  util::Status status;
  core::RuntimeConfig config;

  core::RequestCallbacks callbacks() {
    return core::RequestCallbacks{
        .on_subjob = nullptr,
        .on_released =
            [this](const core::RuntimeConfig& c) {
              released = true;
              config = c;
            },
        .on_terminal =
            [this](const util::Status& s) {
              terminal = true;
              status = s;
            },
    };
  }
};

}  // namespace grid::test
