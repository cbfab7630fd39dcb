// Scoped allocation counting for zero-allocation assertions.
//
// The steady-state message path is allocation-free by design (DESIGN.md
// §5.3); bench/micro_net proved it with a local counting `operator new`
// hook.  AllocGuard promotes that hook into simkit so *any* test or bench
// can assert a zero-allocation region:
//
//   sim::AllocGuard guard;
//   ... run the steady-state window ...
//   EXPECT_EQ(guard.allocations(), 0u);
//
// The guard also tracks live bytes, so a test can bound how much memory a
// run holds, not only how often it allocates:
//
//   sim::AllocGuard guard;
//   ... run ...
//   EXPECT_LT(guard.live_bytes(), bound);
//
// The counting `operator new`/`operator delete` replacements live in
// allocguard.cpp, inside the grid_simkit static library.  The linker pulls
// that object file out of the library to resolve `operator new` itself, so
// every binary that allocates with `new` and links grid_simkit gets the
// hook, whether or not it names AllocGuard: the benches, the examples, the
// tests and the gridbench harness all count.  The hook's cost is one
// thread_local increment per allocation and one `malloc_usable_size` call
// per allocation and per free: about 5 ns per new/delete pair on a 4-core
// x86 VM, about 35 ms of a 6 s coalloc_storm run.  Counting is per-thread
// (thread_local counters, no atomics), which both keeps the hook cheap and
// gives the right semantics under sim::TrialPool: a guard observes the
// allocations of its own trial, never a neighbour's.
#pragma once

#include <cstdint>

namespace grid::sim {

class AllocGuard {
 public:
  /// Starts a counting region on the calling thread.
  AllocGuard()
      : start_(thread_allocations()), start_live_(thread_live_bytes()) {}
  AllocGuard(const AllocGuard&) = delete;
  AllocGuard& operator=(const AllocGuard&) = delete;

  /// Heap allocations (any `new`, including ones buried in libstdc++) made
  /// by this thread since the guard was constructed.
  std::uint64_t allocations() const { return thread_allocations() - start_; }

  /// Bytes this thread allocated and has not freed since the guard was
  /// constructed, as `malloc_usable_size` counts them; negative when the
  /// thread freed more than it allocated.  A given libc gives the same
  /// count for the same run.
  std::int64_t live_bytes() const { return thread_live_bytes() - start_live_; }

  /// Total allocations ever observed on the calling thread.
  static std::uint64_t thread_allocations();
  /// Live bytes the calling thread allocated minus those it freed.
  static std::int64_t thread_live_bytes();

 private:
  std::uint64_t start_;
  std::int64_t start_live_;
};

}  // namespace grid::sim
