// Time-indexed free-slot profile for schedule-ahead decisions.
//
// The EASY backfill rewrite (batch.hpp) and the reservation admission path
// (reservation.hpp) both ask the same question: "how many processors are
// free at virtual time t, assuming running jobs end at their estimated
// ends and admitted windows hold?"  The seed implementations answered it
// by rescanning the running set or the reservation list on every decision
// — O(n log n) per decision, quadratic over a deep queue.  Profile keeps
// the answer as a sorted, coalesced interval list over virtual time (the
// shape batsched's `Schedule` and slurm's backfill free-maps use), so the
// question is a binary search.
//
// Representation: a step function.  `intervals()[i]` says `free`
// processors are available on [intervals()[i].start, intervals()[i+1].start);
// the last interval extends forever.  Invariants (audited under
// GRID_CHECKED, checkable in any build via invariants_ok()):
//   - starts strictly increasing,
//   - 0 <= free <= capacity on every interval,
//   - adjacent intervals differ in free (canonical / coalesced form).
// The canonical form makes "rebuild from scratch == incremental updates"
// an exact vector comparison, which the property tests rely on.
//
// Time semantics: an occupancy covers the half-open window [start, end).
// sim::kTimeNever is an ordinary breakpoint — a job with no usable
// estimate occupies [now, kTimeNever), i.e. it is counted free *at*
// kTimeNever and never before.  That mirrors the seed backfill loop, where
// unknown ends sorted last and still released their processors for the
// shadow computation.
#pragma once

#include <cstdint>
#include <vector>

#include "simkit/time.hpp"

namespace grid::sched {

class Profile {
 public:
  struct Interval {
    sim::Time start = 0;
    std::int32_t free = 0;

    bool operator==(const Interval&) const = default;
  };

  /// Result of an earliest-fit query: the time found and the free count
  /// there.  `at` is always a valid time (a query for count <= capacity
  /// succeeds by kTimeNever at the latest).
  struct Fit {
    sim::Time at = sim::kTimeNever;
    std::int32_t free = 0;
  };

  explicit Profile(std::int32_t capacity);

  std::int32_t capacity() const { return capacity_; }

  /// Claims `count` processors over [start, end).  No-op when the window
  /// is empty or count is 0.  Claiming below zero free is a caller bug
  /// (hard abort under GRID_CHECKED).
  void reserve(sim::Time start, sim::Time end, std::int32_t count);

  /// Returns `count` processors over [start, end) — the inverse of a
  /// (remaining slice of a) previous reserve.  Releasing above capacity is
  /// a caller bug (hard abort under GRID_CHECKED).
  void release(sim::Time start, sim::Time end, std::int32_t count);

  /// Free processors at time t.  Times before the first breakpoint report
  /// the first interval's value (the forgotten past after advance_to).
  std::int32_t free_at(sim::Time t) const;

  /// Earliest t >= from such that at least `count` processors stay free
  /// throughout [t, t + duration) (duration 0 = the single instant t).
  /// Requires count <= capacity; saturates t + duration at kTimeNever.
  Fit earliest_fit(sim::Time from, std::int32_t count,
                   sim::Time duration = 0) const;

  /// Minimum free count over [from, to); from < to required.
  std::int32_t min_free_over(sim::Time from, sim::Time to) const;

  /// Forgets breakpoints strictly before `t` (keeps the interval covering
  /// t as the new head).  Amortizes the interval list to O(live
  /// occupancies) over a long run; queries before `t` then report the
  /// head interval's value.
  void advance_to(sim::Time t);

  /// The canonical interval list (tests, benches, and audits).
  const std::vector<Interval>& intervals() const { return intervals_; }

  /// Full invariant check, available in every build (the property tests
  /// run it after each mutation even when GRID_CHECK is compiled out).
  bool invariants_ok() const;

 private:
  /// Adds `delta` to free over [start, end), splitting and re-coalescing.
  void apply(sim::Time start, sim::Time end, std::int32_t delta);
  /// Index of the interval containing t (last interval with start <= t).
  std::size_t index_of(sim::Time t) const;
  /// Ensures a breakpoint exists exactly at t; returns its index.
  std::size_t split_at(sim::Time t);
  void audit() const;  // GRID_CHECK wrapper around invariants_ok()

  std::int32_t capacity_;
  std::vector<Interval> intervals_;
};

}  // namespace grid::sched
