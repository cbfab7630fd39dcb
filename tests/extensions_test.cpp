// Tests for the co-reservation extension (paper §5 / ref [13]).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sched/coreservation.hpp"

namespace grid {
namespace {

struct CoResFixture : ::testing::Test {
  sim::Engine engine;
  std::vector<std::unique_ptr<sched::ReservationScheduler>> machines;

  void make_machines(int k, std::int32_t procs = 64) {
    for (int i = 0; i < k; ++i) {
      machines.push_back(
          std::make_unique<sched::ReservationScheduler>(engine, procs));
    }
  }
  std::vector<sched::ReservationScheduler*> pointers() {
    std::vector<sched::ReservationScheduler*> out;
    for (auto& m : machines) out.push_back(m.get());
    return out;
  }
};

TEST_F(CoResFixture, AcquiresCommonWindowOnIdleMachines) {
  make_machines(3);
  sched::CoReservationAgent::Options options;
  options.duration = sim::kHour;
  options.count = 32;
  auto holds = sched::CoReservationAgent::acquire(pointers(), options);
  ASSERT_TRUE(holds.is_ok()) << holds.status().to_string();
  ASSERT_EQ(holds.value().size(), 3u);
  const sim::Time start =
      sched::CoReservationAgent::window_start(holds.value());
  EXPECT_EQ(start, 0);
  for (const auto& h : holds.value()) {
    EXPECT_EQ(h.reservation.start, start);
    EXPECT_EQ(h.reservation.count, 32);
  }
}

TEST_F(CoResFixture, SkipsOverBusyWindows) {
  make_machines(2);
  // Machine 1 is fully reserved for the first two hours.
  ASSERT_TRUE(machines[1]->reserve(0, 2 * sim::kHour, 64).is_ok());
  sched::CoReservationAgent::Options options;
  options.duration = sim::kHour;
  options.count = 32;
  options.step = 30 * sim::kMinute;
  auto holds = sched::CoReservationAgent::acquire(pointers(), options);
  ASSERT_TRUE(holds.is_ok());
  EXPECT_EQ(sched::CoReservationAgent::window_start(holds.value()),
            2 * sim::kHour);
  // The rollback left no stray reservations on machine 0.
  EXPECT_EQ(machines[0]->reservation_count(), 1u);
}

TEST_F(CoResFixture, FailsCleanlyPastHorizon) {
  make_machines(2);
  ASSERT_TRUE(machines[0]->reserve(0, 100 * sim::kHour, 64).is_ok());
  sched::CoReservationAgent::Options options;
  options.duration = sim::kHour;
  options.count = 32;
  options.horizon = 10 * sim::kHour;
  auto holds = sched::CoReservationAgent::acquire(pointers(), options);
  EXPECT_FALSE(holds.is_ok());
  EXPECT_EQ(holds.status().code(), util::ErrorCode::kResourceExhausted);
  // All-or-nothing: the unconstrained machine holds no leftover windows.
  EXPECT_EQ(machines[1]->reservation_count(), 0u);
}

TEST_F(CoResFixture, ReleaseClearsHolds) {
  make_machines(2);
  sched::CoReservationAgent::Options options;
  options.count = 16;
  auto holds = sched::CoReservationAgent::acquire(pointers(), options);
  ASSERT_TRUE(holds.is_ok());
  auto held = holds.take();
  sched::CoReservationAgent::release(held);
  EXPECT_TRUE(held.empty());
  EXPECT_EQ(machines[0]->reservation_count(), 0u);
  EXPECT_EQ(machines[1]->reservation_count(), 0u);
}

TEST_F(CoResFixture, RejectsDegenerateOptions) {
  make_machines(1);
  sched::CoReservationAgent::Options options;
  options.step = 0;
  EXPECT_FALSE(
      sched::CoReservationAgent::acquire(pointers(), options).is_ok());
  EXPECT_FALSE(
      sched::CoReservationAgent::acquire({}, {}).is_ok());
}

}  // namespace
}  // namespace grid
