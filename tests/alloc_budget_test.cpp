// Heap-allocation budget of a co-allocation transaction (DESIGN.md §5.3).
//
// A count, not a timing: the same program makes the same allocations on
// every run and machine, so this gate cannot flake the way a timing ratio
// does.  A warm-up request first grows what persists across transactions
// (the payload pool, the engine's slab, the co-allocator's and the
// gatekeepers' tables); the measured request then runs from commit to
// drain inside a sim::AllocGuard.
#include <gtest/gtest.h>

#include <cstdint>

#include "simkit/allocguard.hpp"
#include "test_util.hpp"

namespace grid {
namespace {

constexpr int kSubjobs = 4;
constexpr int kProcessesPerSubjob = 16;
constexpr std::uint64_t kProcesses = kSubjobs * kProcessesPerSubjob;

/// Allocations per co-allocated process, everything the transaction does
/// counted: GSI, GRAM, the RSL round trip, the barrier and the processes.
/// The request makes 256 (4.0 per process); it made 1,321 (20.6) while
/// each process decoded its release into fresh vectors, each endpoint kept
/// slab handler tables and the agent printed the subjob RSL from a tree.
/// The budget leaves room for another standard library and still fails
/// the old count by 2x.
constexpr std::uint64_t kBudgetPerProcess = 10;

/// Runs one 4-subjob request to completion; returns the allocations made
/// from its commit until the grid drains.
std::uint64_t run_request(test::SmallGrid& g) {
  test::Outcome outcome;
  core::CoallocationRequest* req =
      g.coallocator->create_request(outcome.callbacks());
  EXPECT_TRUE(req->add_rsl(g.rsl(kProcessesPerSubjob, "required")).is_ok());
  sim::AllocGuard guard;
  EXPECT_TRUE(req->commit().is_ok());
  g.grid->run();
  const std::uint64_t allocations = guard.allocations();
  EXPECT_TRUE(outcome.released);
  EXPECT_TRUE(outcome.terminal);
  EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_string();
  return allocations;
}

TEST(AllocationBudget, CoallocatedProcessStaysWithinBudget) {
  test::SmallGrid g(kSubjobs);
  run_request(g);  // warm-up
  const std::uint64_t allocations = run_request(g);
  EXPECT_LE(allocations, kBudgetPerProcess * kProcesses)
      << allocations << " allocations for " << kProcesses
      << " co-allocated processes";
  RecordProperty("allocations", static_cast<int>(allocations));
}

}  // namespace
}  // namespace grid
