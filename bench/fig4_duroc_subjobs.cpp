// Figure 4 — DUROC submission times vs. subjob count.
//
// Paper setup (§4.2): 64 processes total, split into 1..25 subjobs, all on
// a host 2 ms from the client; time measured from the co-allocation call
// to receipt of a message sent by an application process immediately upon
// exiting the co-allocation barrier.
//
// Paper results: co-allocation time is independent of the process count
// but linear in the subjob count (~2 s at 1 subjob, ~28 s at 25, i.e. 44%
// below the zero-concurrency GRAM*count line); the average barrier wait is
// about half the total job latency (the kM/2 model); per-process barrier
// waits occur in per-subjob blocks and the shortest wait is ~0.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "simkit/stats.hpp"

#include "app/behaviors.hpp"
#include "core/coallocator.hpp"
#include "testbed/grid.hpp"
#include "testbed/report.hpp"

using namespace grid;

namespace {

struct RunResult {
  double total_s = -1;        // co-allocation call -> first barrier exit
  double avg_wait_s = 0;      // mean per-process barrier wait
  double min_wait_s = 0;
  std::vector<app::BarrierRecord> records;
};

/// Runs one DUROC co-allocation of `total` processes over `subjobs`
/// equal slices of the same 64-processor machine.
RunResult run_duroc(int subjobs, int total) {
  testbed::Grid grid(testbed::CostModel::paper());
  grid.add_host("origin2000", 256);
  app::BarrierStats stats;
  app::install_app(grid.executables(), "app", app::StartupProfile{}, &stats);
  auto mech = grid.make_coallocator("duroc-agent", "/CN=bench");
  bool released = false;
  auto* req = mech->create_request(
      {.on_subjob = nullptr,
       .on_released = [&](const core::RuntimeConfig&) { released = true; },
       .on_terminal = nullptr});
  std::vector<std::string> subs;
  int assigned = 0;
  for (int i = 0; i < subjobs; ++i) {
    const int count = (total - assigned) / (subjobs - i);
    assigned += count;
    subs.push_back(
        testbed::rsl_subjob("origin2000", count, "app", "required"));
  }
  req->add_rsl(testbed::rsl_multi(subs));
  req->commit();
  grid.run();
  RunResult out;
  if (!released) return out;
  // The measurement endpoint is the process side: first barrier *exit*.
  sim::Time first_exit = sim::kTimeNever;
  util::Accumulator waits;
  sim::Time min_wait = sim::kTimeNever;
  for (const app::BarrierRecord& r : stats.records) {
    first_exit = std::min(first_exit, r.released_at);
    waits.add(sim::to_seconds(r.wait()));
    min_wait = std::min(min_wait, r.wait());
  }
  out.total_s = sim::to_seconds(first_exit);
  out.avg_wait_s = waits.mean();
  out.min_wait_s = sim::to_seconds(min_wait);
  out.records = stats.records;
  return out;
}

}  // namespace

int main() {
  testbed::print_heading("Figure 4: DUROC submission time vs. subjob count "
                         "(64 processes total, host 2 ms away)");

  // Baseline: one independent GRAM request (the k1 of the model) and the
  // per-subjob serialized cost k (slope).
  const RunResult one = run_duroc(1, 64);
  const RunResult two = run_duroc(2, 64);
  const double k1 = one.total_s;
  const double k = two.total_s - one.total_s;  // serialized per-subjob cost

  testbed::Table table({"subjobs", "measured_s", "synthetic_kM_s",
                        "gram_x_count_s", "avg_barrier_wait_s",
                        "kM_over_2_s"});
  double measured25 = 0;
  for (int m : {1, 2, 4, 6, 8, 10, 12, 15, 20, 25}) {
    const RunResult r = run_duroc(m, 64);
    const double synthetic = k1 + k * (m - 1);
    const double zero_concurrency = k1 * m;
    if (m == 25) measured25 = r.total_s;
    table.add_row({testbed::Table::num(static_cast<std::int64_t>(m)),
                   testbed::Table::num(r.total_s),
                   testbed::Table::num(synthetic),
                   testbed::Table::num(zero_concurrency),
                   testbed::Table::num(r.avg_wait_s),
                   testbed::Table::num(k * m / 2)});
  }
  testbed::print_table(table);
  testbed::print_metric("single_subjob_total (paper ~2)", k1, "s");
  testbed::print_metric("slope_per_subjob_k (paper ~1.08)", k, "s");
  const double saving = 1.0 - measured25 / (25 * k1);
  testbed::print_metric("saving_vs_zero_concurrency_at_25 (paper 0.44)",
                        saving);

  // Process-count independence at fixed subjob count (the other half of
  // the paper's claim).
  testbed::print_heading("co-allocation time vs. process count (8 subjobs)");
  testbed::Table bycount({"processes", "measured_s"});
  for (int total : {16, 32, 64, 128}) {
    const RunResult r = run_duroc(8, total);
    bycount.add_row({testbed::Table::num(static_cast<std::int64_t>(total)),
                     testbed::Table::num(r.total_s)});
  }
  testbed::print_table(bycount);

  // §4.2 raw-data check: barrier waits in per-subjob blocks, min ~ 0.
  testbed::print_heading("per-process barrier waits (4 subjobs x 4 procs): "
                         "per-subjob blocks, shortest wait ~0");
  const RunResult blocks = run_duroc(4, 16);
  std::vector<app::BarrierRecord> recs = blocks.records;
  std::sort(recs.begin(), recs.end(),
            [](const app::BarrierRecord& a, const app::BarrierRecord& b) {
              return a.rank < b.rank;
            });
  testbed::Table waits({"global_rank", "subjob", "wait_s"});
  for (const auto& r : recs) {
    waits.add_row({testbed::Table::num(static_cast<std::int64_t>(r.rank)),
                   testbed::Table::num(static_cast<std::int64_t>(r.subjob)),
                   testbed::Table::num(sim::to_seconds(r.wait()))});
  }
  testbed::print_table(waits);
  testbed::print_metric("min_wait (paper ~0, 10 ms resolution)",
                        blocks.min_wait_s, "s");

  // Distribution view of the 25-subjob run: waits cluster in per-subjob
  // bands between 0 and the total job latency.
  testbed::print_heading("barrier wait distribution (25 subjobs, 64 procs)");
  const RunResult dist = run_duroc(25, 64);
  util::Histogram hist(0.0, dist.total_s, 12);
  for (const app::BarrierRecord& r : dist.records) {
    hist.add(sim::to_seconds(r.wait()));
  }
  std::fputs(hist.render().c_str(), stdout);

  const bool shape_ok = k > 0.8 && k < 1.6 && k1 > 1.5 && k1 < 2.5 &&
                        saving > 0.25 && blocks.min_wait_s < 0.01;
  std::printf("\nshape check (linear in subjobs, ~2 s single, large saving "
              "vs zero concurrency, min wait ~0): %s\n",
              shape_ok ? "HOLDS" : "VIOLATED");
  return shape_ok ? 0 : 1;
}
