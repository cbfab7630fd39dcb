// Design ablation — pipelined vs. fully serialized subjob submission.
//
// Figure 4 credits the sub-linear DUROC cost ("44% less time ... than one
// would expect with zero concurrency") to overlapping each subjob's remote
// startup with later submissions.  This ablation switches the overlap off
// (RequestConfig::serialize_until_checkin) and measures the price.
#include <cstdio>

#include "app/behaviors.hpp"
#include "core/coallocator.hpp"
#include "testbed/grid.hpp"
#include "testbed/report.hpp"

using namespace grid;

namespace {

double run(int subjobs, bool serialize) {
  testbed::Grid grid(testbed::CostModel::paper());
  grid.add_host("origin2000", 256);
  app::BarrierStats stats;
  app::install_app(grid.executables(), "app", app::StartupProfile{}, &stats);
  core::RequestConfig config;
  config.serialize_until_checkin = serialize;
  auto mech = grid.make_coallocator("agent", "/CN=bench", config);
  sim::Time released = -1;
  auto* req = mech->create_request(
      {.on_subjob = nullptr,
       .on_released =
           [&](const core::RuntimeConfig&) { released = grid.engine().now(); },
       .on_terminal = nullptr});
  std::vector<std::string> subs;
  for (int i = 0; i < subjobs; ++i) {
    subs.push_back(testbed::rsl_subjob("origin2000", 64 / subjobs, "app",
                                       "required"));
  }
  req->add_rsl(testbed::rsl_multi(subs));
  req->commit();
  grid.run();
  return sim::to_seconds(released);
}

}  // namespace

int main() {
  testbed::print_heading(
      "Ablation: pipelined vs. zero-concurrency subjob submission "
      "(64 processes total)");
  testbed::Table table({"subjobs", "pipelined_s", "serialized_s",
                        "overlap_saving"});
  bool monotone = true;
  double saving16 = 0;
  for (int m : {1, 2, 4, 8, 16}) {
    const double piped = run(m, false);
    const double serial = run(m, true);
    const double saving = 1.0 - piped / serial;
    if (m == 16) saving16 = saving;
    if (piped > serial + 1e-9) monotone = false;
    table.add_row({testbed::Table::num(static_cast<std::int64_t>(m)),
                   testbed::Table::num(piped),
                   testbed::Table::num(serial),
                   testbed::Table::num(saving, 3)});
  }
  testbed::print_table(table);
  std::printf("\nshape check: pipelining never loses and saves a large\n"
              "fraction at high subjob counts (paper: 44%% at 25 subjobs): "
              "%s\n",
              monotone && saving16 > 0.25 ? "HOLDS" : "VIOLATED");
  return monotone && saving16 > 0.25 ? 0 : 1;
}
