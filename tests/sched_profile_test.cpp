// Property tests for sched::Profile, the time-indexed free-slot structure
// behind the EASY backfill rewrite (DESIGN.md §5.4).
//
// Three families:
//   - structural invariants after every mutation (sorted, coalesced,
//     0 <= free <= capacity), via the always-available invariants_ok();
//   - queries against a naive model that keeps the raw occupancy list and
//     answers by linear scan (free_at, min_free_over, earliest_fit);
//   - incremental == rebuilt-from-scratch: after any interleaving of
//     reserves and releases, the canonical interval list equals a fresh
//     Profile fed only the surviving occupancies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sched/profile.hpp"
#include "simkit/rng.hpp"

namespace grid::sched {
namespace {

struct Occupancy {
  sim::Time start = 0;
  sim::Time end = 0;
  std::int32_t count = 0;
};

// The model: raw occupancy list, every query a linear scan.
class NaiveProfile {
 public:
  explicit NaiveProfile(std::int32_t capacity) : capacity_(capacity) {}

  void add(const Occupancy& o) { occ_.push_back(o); }
  void remove(std::size_t index) {
    occ_.erase(occ_.begin() + static_cast<std::ptrdiff_t>(index));
  }
  const std::vector<Occupancy>& occupancies() const { return occ_; }

  std::int32_t free_at(sim::Time t) const {
    std::int32_t busy = 0;
    for (const Occupancy& o : occ_) {
      if (o.start <= t && t < o.end) busy += o.count;
    }
    return capacity_ - busy;
  }

  std::int32_t min_free_over(sim::Time from, sim::Time to) const {
    std::int32_t best = free_at(from);
    for (const Occupancy& o : occ_) {
      for (const sim::Time t : {o.start, o.end}) {
        if (t > from && t < to) best = std::min(best, free_at(t));
      }
    }
    return best;
  }

  sim::Time earliest_fit(sim::Time from, std::int32_t count,
                         sim::Time duration) const {
    std::vector<sim::Time> candidates{from};
    for (const Occupancy& o : occ_) {
      if (o.end > from) candidates.push_back(o.end);  // frees capacity at end
    }
    std::sort(candidates.begin(), candidates.end());
    for (const sim::Time t : candidates) {
      const sim::Time until =
          duration >= sim::kTimeNever - t ? sim::kTimeNever : t + duration;
      const bool fits = duration == 0
                            ? free_at(t) >= count
                            : min_free_over(t, until) >= count;
      if (fits) return t;
    }
    return sim::kTimeNever;
  }

 private:
  std::int32_t capacity_;
  std::vector<Occupancy> occ_;
};

Profile rebuild(std::int32_t capacity, const std::vector<Occupancy>& occ) {
  Profile p(capacity);
  for (const Occupancy& o : occ) p.reserve(o.start, o.end, o.count);
  return p;
}

Occupancy random_occupancy(sim::Rng& rng, std::int32_t headroom) {
  Occupancy o;
  o.start = rng.uniform_time(0, 10000);
  o.end = rng.chance(0.1) ? sim::kTimeNever
                             : o.start + rng.uniform_time(1, 5000);
  o.count = static_cast<std::int32_t>(rng.uniform_int(1, headroom));
  return o;
}

TEST(Profile, FreshProfileIsAllFree) {
  Profile p(64);
  EXPECT_TRUE(p.invariants_ok());
  EXPECT_EQ(p.free_at(0), 64);
  EXPECT_EQ(p.free_at(sim::kTimeNever), 64);
  ASSERT_EQ(p.intervals().size(), 1u);
  const Profile::Fit fit = p.earliest_fit(0, 64);
  EXPECT_EQ(fit.at, 0);
  EXPECT_EQ(fit.free, 64);
}

TEST(Profile, HalfOpenWindowSemantics) {
  Profile p(8);
  p.reserve(10, 20, 3);
  EXPECT_EQ(p.free_at(9), 8);
  EXPECT_EQ(p.free_at(10), 5);
  EXPECT_EQ(p.free_at(19), 5);
  EXPECT_EQ(p.free_at(20), 8);  // released exactly at the end
}

TEST(Profile, NeverIsAnOrdinaryBreakpoint) {
  Profile p(8);
  p.reserve(5, sim::kTimeNever, 8);
  EXPECT_EQ(p.free_at(sim::kTimeNever - 1), 0);
  EXPECT_EQ(p.free_at(sim::kTimeNever), 8);
  // A machine-wide fit waits for the end of time, never fails.
  const Profile::Fit fit = p.earliest_fit(6, 8);
  EXPECT_EQ(fit.at, sim::kTimeNever);
  EXPECT_EQ(fit.free, 8);
}

TEST(Profile, EarliestFitSkipsTooShortGaps) {
  Profile p(4);
  p.reserve(0, 10, 3);    // 1 free until 10
  p.reserve(15, 30, 3);   // gap [10, 15) of full capacity, then 1 free
  // Width 2 for duration 4: [11, 15) just fits inside the gap (half-open
  // windows), but [12, 16) would clip the next occupancy, pushing the fit
  // all the way past it.
  EXPECT_EQ(p.earliest_fit(0, 2, 4).at, 10);
  EXPECT_EQ(p.earliest_fit(11, 2, 4).at, 11);
  EXPECT_EQ(p.earliest_fit(12, 2, 4).at, 30);
  EXPECT_EQ(p.earliest_fit(12, 1, 4).at, 12);
}

TEST(Profile, AdvanceToForgetsOnlyThePast) {
  Profile p(16);
  p.reserve(0, 100, 4);
  p.reserve(50, 200, 8);
  Profile copy = p;
  p.advance_to(120);
  EXPECT_TRUE(p.invariants_ok());
  for (sim::Time t = 120; t <= 220; t += 10) {
    EXPECT_EQ(p.free_at(t), copy.free_at(t)) << "t=" << t;
  }
  EXPECT_LE(p.intervals().size(), copy.intervals().size());
}

TEST(Profile, RandomizedQueriesMatchNaiveModel) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    sim::Rng rng(0x9f0f11eULL + seed * 7919);
    const std::int32_t capacity =
        static_cast<std::int32_t>(rng.uniform_int(1, 128));
    Profile p(capacity);
    NaiveProfile model(capacity);
    for (int step = 0; step < 200; ++step) {
      // Add a new occupancy if it fits everywhere in its window (the
      // Profile contract forbids oversubscription), else drop one.
      Occupancy o = random_occupancy(rng, capacity);
      const bool can_add =
          o.end > o.start && model.min_free_over(o.start, o.end) >= o.count;
      if (can_add && (model.occupancies().empty() || rng.chance(0.7))) {
        p.reserve(o.start, o.end, o.count);
        model.add(o);
      } else if (!model.occupancies().empty()) {
        const std::size_t victim = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(model.occupancies().size()) - 1));
        const Occupancy gone = model.occupancies()[victim];
        p.release(gone.start, gone.end, gone.count);
        model.remove(victim);
      }
      ASSERT_TRUE(p.invariants_ok()) << "seed " << seed << " step " << step;
      // Point queries at random times and at every breakpoint boundary.
      for (int q = 0; q < 8; ++q) {
        const sim::Time t = rng.uniform_time(0, 16000);
        ASSERT_EQ(p.free_at(t), model.free_at(t))
            << "seed " << seed << " step " << step << " t=" << t;
      }
      for (const Profile::Interval& iv : p.intervals()) {
        ASSERT_EQ(iv.free, model.free_at(iv.start));
        if (iv.start > 0) {
          ASSERT_EQ(p.free_at(iv.start - 1), model.free_at(iv.start - 1));
        }
      }
      // Range and fit queries against the linear-scan model.
      const sim::Time from = rng.uniform_time(0, 12000);
      const sim::Time to = from + rng.uniform_time(1, 6000);
      ASSERT_EQ(p.min_free_over(from, to), model.min_free_over(from, to));
      const std::int32_t want =
          static_cast<std::int32_t>(rng.uniform_int(1, capacity));
      const sim::Time dur = rng.chance(0.5) ? 0 : rng.uniform_time(1, 3000);
      ASSERT_EQ(p.earliest_fit(from, want, dur).at,
                model.earliest_fit(from, want, dur))
          << "seed " << seed << " step " << step << " from=" << from
          << " want=" << want << " dur=" << dur;
    }
  }
}

TEST(Profile, IncrementalEqualsRebuildFromScratch) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    sim::Rng rng(0xacc0a1edULL + seed * 104729);
    const std::int32_t capacity =
        static_cast<std::int32_t>(rng.uniform_int(2, 96));
    Profile p(capacity);
    NaiveProfile model(capacity);
    for (int step = 0; step < 300; ++step) {
      Occupancy o = random_occupancy(rng, capacity);
      const bool can_add =
          o.end > o.start && model.min_free_over(o.start, o.end) >= o.count;
      if (can_add && (model.occupancies().empty() || rng.chance(0.6))) {
        p.reserve(o.start, o.end, o.count);
        model.add(o);
      } else if (!model.occupancies().empty()) {
        const std::size_t victim = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(model.occupancies().size()) - 1));
        const Occupancy gone = model.occupancies()[victim];
        p.release(gone.start, gone.end, gone.count);
        model.remove(victim);
      }
      // Canonical form makes this an exact vector comparison: the
      // incremental structure must be indistinguishable from one that
      // only ever saw the surviving occupancies.
      const Profile fresh = rebuild(capacity, model.occupancies());
      ASSERT_EQ(p.intervals(), fresh.intervals())
          << "seed " << seed << " step " << step;
    }
  }
}

}  // namespace
}  // namespace grid::sched
