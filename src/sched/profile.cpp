#include "sched/profile.hpp"

#include <algorithm>

#include "simkit/check.hpp"

namespace grid::sched {

Profile::Profile(std::int32_t capacity) : capacity_(capacity) {
  GRID_CHECK(capacity >= 0, "Profile capacity must be non-negative");
  intervals_.push_back(Interval{0, capacity_});
}

std::size_t Profile::index_of(sim::Time t) const {
  // Last interval with start <= t; times before the head clamp to it.
  const auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), t,
      [](sim::Time v, const Interval& iv) { return v < iv.start; });
  if (it == intervals_.begin()) return 0;
  return static_cast<std::size_t>(it - intervals_.begin()) - 1;
}

std::size_t Profile::split_at(sim::Time t) {
  std::size_t i = index_of(t);
  if (intervals_[i].start == t || t < intervals_[i].start) return i;
  intervals_.insert(intervals_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                    Interval{t, intervals_[i].free});
  return i + 1;
}

void Profile::apply(sim::Time start, sim::Time end, std::int32_t delta) {
  if (delta == 0 || start >= end) return;
  // The past before the head breakpoint is forgotten; clamp into range.
  if (start < intervals_.front().start) start = intervals_.front().start;
  if (start >= end) return;
  const std::size_t lo = split_at(start);
  const std::size_t hi = split_at(end);  // first interval NOT affected
  for (std::size_t i = lo; i < hi; ++i) {
    intervals_[i].free += delta;
    GRID_CHECK(intervals_[i].free >= 0,
               "Profile oversubscribed: free below zero");
    GRID_CHECK(intervals_[i].free <= capacity_,
               "Profile release exceeds capacity");
  }
  // Re-coalesce around the touched range so the form stays canonical.
  const std::size_t from = lo > 0 ? lo - 1 : 0;
  std::size_t w = from;
  for (std::size_t r = from + 1; r < intervals_.size(); ++r) {
    if (r <= hi + 1 && intervals_[r].free == intervals_[w].free) continue;
    intervals_[++w] = intervals_[r];
  }
  intervals_.resize(w + 1);
  audit();
}

void Profile::reserve(sim::Time start, sim::Time end, std::int32_t count) {
  GRID_CHECK(count >= 0, "Profile reserve with negative count");
  apply(start, end, -count);
}

void Profile::release(sim::Time start, sim::Time end, std::int32_t count) {
  GRID_CHECK(count >= 0, "Profile release with negative count");
  apply(start, end, count);
}

std::int32_t Profile::free_at(sim::Time t) const {
  return intervals_[index_of(t)].free;
}

Profile::Fit Profile::earliest_fit(sim::Time from, std::int32_t count,
                                   sim::Time duration) const {
  GRID_CHECK(count <= capacity_, "earliest_fit for more than capacity");
  std::size_t i = index_of(from);
  while (true) {
    if (intervals_[i].free >= count) {
      const sim::Time at = std::max(from, intervals_[i].start);
      const sim::Time until =
          duration >= sim::kTimeNever - at ? sim::kTimeNever : at + duration;
      // The window [at, until) must stay wide enough across intervals.
      std::size_t j = i;
      bool ok = true;
      while (j + 1 < intervals_.size() && intervals_[j + 1].start < until) {
        ++j;
        if (intervals_[j].free < count) {
          ok = false;
          break;
        }
      }
      if (ok) return Fit{at, intervals_[i].free};
      i = j;  // restart after the blocking interval
    }
    ++i;
    if (i >= intervals_.size()) {
      // Unreachable for count <= capacity: the final interval always has
      // free == capacity once every occupancy's end has passed.
      return Fit{sim::kTimeNever, intervals_.back().free};
    }
  }
}

std::int32_t Profile::min_free_over(sim::Time from, sim::Time to) const {
  GRID_CHECK(from < to, "min_free_over with an empty window");
  std::size_t i = index_of(from);
  std::int32_t best = intervals_[i].free;
  while (i + 1 < intervals_.size() && intervals_[i + 1].start < to) {
    ++i;
    best = std::min(best, intervals_[i].free);
  }
  return best;
}

void Profile::advance_to(sim::Time t) {
  const std::size_t i = index_of(t);
  if (i == 0) return;
  intervals_.erase(intervals_.begin(),
                   intervals_.begin() + static_cast<std::ptrdiff_t>(i));
  audit();
}

bool Profile::invariants_ok() const {
  if (intervals_.empty()) return false;
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    if (intervals_[i].free < 0 || intervals_[i].free > capacity_) return false;
    if (i > 0 && intervals_[i].start <= intervals_[i - 1].start) return false;
    if (i > 0 && intervals_[i].free == intervals_[i - 1].free) return false;
  }
  return true;
}

void Profile::audit() const {
  GRID_CHECK(invariants_ok(), "Profile interval list invariant violated");
}

}  // namespace grid::sched
