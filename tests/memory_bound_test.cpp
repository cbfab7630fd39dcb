// Long runs stay bounded in memory: what a ScaleScenario holds follows the
// objects alive at the end of its run, not the history behind them.  The
// gate counts live heap bytes with sim::AllocGuard, so for a given libc it
// is a deterministic count, not an RSS reading or a timing.
#include <gtest/gtest.h>

#include <cstdint>

#include "simkit/allocguard.hpp"
#include "testbed/scale.hpp"

namespace grid {
namespace {

// Live bytes one scenario holds after running for `duration`, counted from
// before its construction: quick size (96 resources) at a flat rate, with
// about coalloc_storm's 250 transactions a day per resource.
std::int64_t live_bytes_after(sim::Time duration) {
  testbed::ScaleSpec spec = testbed::ScaleSpec::quick();
  spec.seed = 101;
  spec.diurnal_amplitude = 0.0;
  spec.background_jobs_per_day = 60'000.0;
  spec.transactions_per_day = 24'000.0;
  spec.duration = duration;
  const sim::AllocGuard guard;
  testbed::ScaleScenario scenario(spec);
  const testbed::ScaleMetrics m = scenario.run();
  EXPECT_GT(m.txn_released, 0u);
  return guard.live_bytes();
}

TEST(MemoryBound, ScaleScenarioHoldsNoMoreAfterEightHoursThanTwo) {
  const std::int64_t two = live_bytes_after(2 * sim::kHour);
  const std::int64_t eight = live_bytes_after(8 * sim::kHour);
  ASSERT_GT(two, 0);
  // The live-object gauges are flat past the first hour, so the heap must
  // be too, within 25%.  The second run reuses the payload buffers the
  // first left in the thread's pool, so its count leaves them out (about
  // 0.5 MB; each in a fresh process, the 8-hour scenario holds 1.22x
  // what the 2-hour one does).
  EXPECT_LE(eight * 4, two * 5)
      << "live bytes: " << two << " after 2 h, " << eight << " after 8 h";
}

}  // namespace
}  // namespace grid
