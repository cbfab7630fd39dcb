// Figure 5 — timeline of a DUROC submission.
//
// The paper's figure shows that the individual GRAM requests of a DUROC
// submission are issued sequentially (GSI, initgroups, misc, fork phases
// per subjob on the client's critical path) while the startup tail of each
// subjob (exec, application init, barrier wait) overlaps with later
// submissions, until the commit releases every process at once.
//
// This bench reconstructs that timeline from per-subjob timestamps and
// renders it as an ASCII Gantt chart.
#include <cstdio>
#include <string>
#include <vector>

#include "app/behaviors.hpp"
#include "core/coallocator.hpp"
#include "testbed/grid.hpp"
#include "testbed/report.hpp"

using namespace grid;

int main() {
  testbed::Grid grid(testbed::CostModel::paper());
  grid.add_host("origin2000", 256);
  app::BarrierStats stats;
  app::install_app(grid.executables(), "app", app::StartupProfile{}, &stats);
  auto mech = grid.make_coallocator("duroc-agent", "/CN=bench");
  sim::Time released_at = -1;
  auto* req = mech->create_request(
      {.on_subjob = nullptr,
       .on_released =
           [&](const core::RuntimeConfig&) { released_at = grid.engine().now(); },
       .on_terminal = nullptr});
  req->add_rsl(testbed::rsl_multi({
      testbed::rsl_subjob("origin2000", 16, "app", "required"),
      testbed::rsl_subjob("origin2000", 16, "app", "required"),
      testbed::rsl_subjob("origin2000", 16, "app", "required"),
      testbed::rsl_subjob("origin2000", 16, "app", "required"),
  }));
  req->commit();
  grid.run();

  testbed::print_heading("Figure 5: timeline of a DUROC submission "
                         "(4 subjobs x 16 processes)");
  testbed::Table table({"subjob", "submit_s", "accept_s", "active_s",
                        "checkin_s", "release_s"});
  // Handles are 1..subjob_count(): views[i] is subjob i + 1.
  std::vector<core::CoallocationRequest::SubjobBrief> views;
  for (core::SubjobHandle h = 1; h <= req->subjob_count(); ++h) {
    views.push_back(req->subjob_brief(h).value());
  }
  for (std::size_t i = 0; i < views.size(); ++i) {
    const auto& v = views[i];
    table.add_row({testbed::Table::num(static_cast<std::int64_t>(i + 1)),
                   testbed::Table::num(sim::to_seconds(v.submitted_at)),
                   testbed::Table::num(sim::to_seconds(v.accepted_at)),
                   testbed::Table::num(sim::to_seconds(v.active_at)),
                   testbed::Table::num(sim::to_seconds(v.checked_in_at)),
                   testbed::Table::num(sim::to_seconds(v.released_at))});
  }
  testbed::print_table(table);

  // ASCII Gantt: S = submission (client critical path: GSI + initgroups +
  // misc + fork), x = startup tail (exec + app init), b = barrier wait,
  // R = release instant.
  const double horizon = sim::to_seconds(released_at) + 0.2;
  const int width = 100;
  auto col = [&](sim::Time t) {
    int c = static_cast<int>(sim::to_seconds(t) / horizon * width);
    return std::min(std::max(c, 0), width - 1);
  };
  std::printf("\n  0s %*s %.1fs\n", width - 8, "", horizon);
  for (std::size_t i = 0; i < views.size(); ++i) {
    const auto& v = views[i];
    std::string line(static_cast<std::size_t>(width), ' ');
    for (int c = col(v.submitted_at); c <= col(v.accepted_at); ++c) {
      line[static_cast<std::size_t>(c)] = 'S';
    }
    for (int c = col(v.accepted_at) + 1; c <= col(v.checked_in_at); ++c) {
      line[static_cast<std::size_t>(c)] = 'x';
    }
    for (int c = col(v.checked_in_at) + 1; c < col(v.released_at); ++c) {
      line[static_cast<std::size_t>(c)] = 'b';
    }
    line[static_cast<std::size_t>(col(v.released_at))] = 'R';
    std::printf("  subjob %zu |%s|\n", i + 1, line.c_str());
  }
  std::printf("\n  S = GRAM request on the client critical path "
              "(sequential)\n  x = remote startup (overlaps later "
              "submissions)\n  b = barrier wait\n  R = commit releases all "
              "subjobs at %.3f s\n",
              sim::to_seconds(released_at));

  // Shape checks: submissions strictly sequential, startup tails overlap.
  bool sequential = true;
  bool overlapped = false;
  for (std::size_t i = 1; i < views.size(); ++i) {
    if (views[i].submitted_at < views[i - 1].accepted_at) sequential = false;
    if (views[i].submitted_at < views[i - 1].checked_in_at) overlapped = true;
  }
  std::printf("\nshape check (sequential submissions, overlapped startup): "
              "%s\n",
              sequential && overlapped ? "HOLDS" : "VIOLATED");
  return sequential && overlapped ? 0 : 1;
}
