// Unit tests for the discrete-event engine, RNG, statistics, codec, and
// status types.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "simkit/bufpool.hpp"
#include "simkit/codec.hpp"
#include "simkit/engine.hpp"
#include "simkit/idmap.hpp"
#include "simkit/inplace_function.hpp"
#include "simkit/rng.hpp"
#include "simkit/stats.hpp"
#include "simkit/status.hpp"
#include "simkit/time.hpp"
#include "simkit/trialpool.hpp"

namespace grid {
namespace {

// ---- engine -----------------------------------------------------------------

TEST(Engine, StartsAtTimeZero) {
  sim::Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  sim::Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, SameTimeEventsRunFifo) {
  sim::Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  sim::Engine e;
  sim::Time inner = -1;
  e.schedule_at(100, [&] {
    e.schedule_after(50, [&] { inner = e.now(); });
  });
  e.run();
  EXPECT_EQ(inner, 150);
}

TEST(Engine, SchedulingInThePastClampsToNow) {
  sim::Engine e;
  sim::Time fired = -1;
  e.schedule_at(100, [&] {
    e.schedule_at(10, [&] { fired = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired, 100);
}

TEST(Engine, CancelPreventsExecution) {
  sim::Engine e;
  bool fired = false;
  auto id = e.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelReturnsFalseForFiredEvent) {
  sim::Engine e;
  auto id = e.schedule_at(10, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelTwiceReturnsFalse) {
  sim::Engine e;
  auto id = e.schedule_at(10, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, DefaultEventIdIsInvalidToCancel) {
  sim::Engine e;
  EXPECT_FALSE(e.cancel(sim::EventId{}));
}

TEST(Engine, RunUntilStopsAtDeadline) {
  sim::Engine e;
  std::vector<sim::Time> fired;
  e.schedule_at(10, [&] { fired.push_back(10); });
  e.schedule_at(20, [&] { fired.push_back(20); });
  e.schedule_at(30, [&] { fired.push_back(30); });
  e.run_until(20);
  EXPECT_EQ(fired, (std::vector<sim::Time>{10, 20}));
  EXPECT_EQ(e.now(), 20);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  sim::Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(1, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  sim::Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) e.schedule_after(1, recurse);
  };
  e.schedule_at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 4);
}

TEST(Engine, ExecutedCounterCounts) {
  sim::Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.executed(), 7u);
}

TEST(Engine, PendingExcludesCancelled) {
  sim::Engine e;
  auto a = e.schedule_at(1, [] {});
  e.schedule_at(2, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, CancelFromInsideFiringCallback) {
  // A firing callback may disarm any pending event, including one
  // scheduled for the same instant, and may not disarm itself (it has
  // already fired).
  sim::Engine e;
  bool victim_fired = false;
  sim::EventId self;
  sim::EventId victim = e.schedule_at(10, [&] { victim_fired = true; });
  self = e.schedule_at(5, [&] {
    EXPECT_TRUE(e.cancel(victim));
    EXPECT_FALSE(e.cancel(self));  // the firing event is no longer pending
  });
  e.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(e.executed(), 1u);
}

TEST(Engine, CancelSameInstantSiblingFromCallback) {
  sim::Engine e;
  std::vector<int> fired;
  sim::EventId second;
  e.schedule_at(5, [&] {
    fired.push_back(1);
    EXPECT_TRUE(e.cancel(second));
  });
  second = e.schedule_at(5, [&] { fired.push_back(2); });
  e.schedule_at(5, [&] { fired.push_back(3); });
  e.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(Engine, ReentrantZeroDelayRunsFifo) {
  // Events scheduled from inside a callback with zero delay land at the
  // same instant and must still run in scheduling order, after any events
  // already queued for that instant.
  sim::Engine e;
  std::vector<int> order;
  e.schedule_at(5, [&] {
    order.push_back(1);
    e.schedule_after(0, [&] {
      order.push_back(3);
      e.schedule_after(0, [&] { order.push_back(5); });
    });
    e.schedule_after(0, [&] { order.push_back(4); });
  });
  e.schedule_at(5, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(e.now(), 5);
}

TEST(Engine, SlabReuseDoesNotResurrectStaleIds) {
  // After an event fires or is cancelled its slab slot is recycled; a held
  // handle to the old occupant must never cancel the new one.
  sim::Engine e;
  auto stale_fired = e.schedule_at(1, [] {});
  auto stale_cancelled = e.schedule_at(2, [] {});
  e.cancel(stale_cancelled);
  e.run();
  // Refill the slab: the freed slots are reused by these events.
  bool a_fired = false, b_fired = false;
  e.schedule_at(10, [&] { a_fired = true; });
  e.schedule_at(11, [&] { b_fired = true; });
  EXPECT_FALSE(e.cancel(stale_fired));
  EXPECT_FALSE(e.cancel(stale_cancelled));
  EXPECT_EQ(e.pending(), 2u);
  e.run();
  EXPECT_TRUE(a_fired);
  EXPECT_TRUE(b_fired);
}

TEST(Engine, SeededShufflePreservesSameTimeFifo) {
  // Adversarial heap exercise: schedule events at a handful of instants in
  // shuffled order, cancel a seeded subset, and assert that per instant
  // the survivors fire exactly in scheduling order.  This is the
  // determinism contract the protocols rely on, under enough churn that a
  // broken sift or stale heap_pos would scramble it.
  sim::Rng rng(0x5eed);
  for (int trial = 0; trial < 20; ++trial) {
    sim::Engine e;
    constexpr int kEvents = 300;
    std::vector<int> arrival(kEvents);
    std::iota(arrival.begin(), arrival.end(), 0);
    // Fisher-Yates with the sim RNG, so the trial is reproducible.
    for (int i = kEvents - 1; i > 0; --i) {
      std::swap(arrival[static_cast<std::size_t>(i)],
                arrival[static_cast<std::size_t>(rng.uniform_int(0, i))]);
    }
    struct Scheduled {
      sim::EventId id;
      sim::Time at;
      int order;  // scheduling order, the FIFO key
      bool cancelled = false;
    };
    std::vector<Scheduled> events;
    std::vector<std::pair<sim::Time, int>> fired;
    for (int order = 0; order < kEvents; ++order) {
      const sim::Time at = arrival[static_cast<std::size_t>(order)] % 7;
      Scheduled s;
      s.at = at;
      s.order = order;
      s.id = e.schedule_at(at, [&fired, &e, order] {
        fired.emplace_back(e.now(), order);
      });
      events.push_back(s);
    }
    for (Scheduled& s : events) {
      if (rng.chance(0.3)) {
        EXPECT_TRUE(e.cancel(s.id));
        s.cancelled = true;
      }
    }
    e.run();
    std::vector<std::pair<sim::Time, int>> expected;
    for (sim::Time at = 0; at < 7; ++at) {
      for (const Scheduled& s : events) {
        if (!s.cancelled && s.at == at) expected.emplace_back(at, s.order);
      }
    }
    EXPECT_EQ(fired, expected) << "trial " << trial;
  }
}

TEST(Engine, TimeNeverEventsAreUnreachable) {
  // The kTimeNever contract: a parked event is pending but never fires,
  // not even via run() or run_until(kTimeNever).
  sim::Engine e;
  bool parked_fired = false;
  bool normal_fired = false;
  auto parked = e.schedule_at(sim::kTimeNever, [&] { parked_fired = true; });
  e.schedule_at(10, [&] { normal_fired = true; });
  e.run();
  EXPECT_TRUE(normal_fired);
  EXPECT_FALSE(parked_fired);
  EXPECT_EQ(e.now(), 10);  // the clock never jumped to the end of time
  EXPECT_EQ(e.pending(), 1u);
  e.run_until(sim::kTimeNever);
  EXPECT_FALSE(parked_fired);
  EXPECT_EQ(e.now(), 10);
  EXPECT_FALSE(e.step());
  // Parked events are still cancellable.
  EXPECT_TRUE(e.cancel(parked));
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, OverflowingDelayParksAtTimeNever) {
  sim::Engine e;
  bool fired = false;
  e.schedule_at(100, [&] {
    e.schedule_after(sim::kTimeNever - 10, [&] { fired = true; });
  });
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.now(), 100);
  EXPECT_EQ(e.pending(), 1u);
}

// ---- inplace function -------------------------------------------------------

TEST(InplaceFunction, SmallCaptureInvokes) {
  int hits = 0;
  sim::InplaceFunction<64> f([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(f));
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InplaceFunction, DefaultAndNullptrAreEmpty) {
  sim::InplaceFunction<64> f;
  EXPECT_FALSE(static_cast<bool>(f));
  f = [] {};
  EXPECT_TRUE(static_cast<bool>(f));
  f = nullptr;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InplaceFunction, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  sim::InplaceFunction<64> a([counter] { ++*counter; });
  sim::InplaceFunction<64> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(*counter, 1);
  a = std::move(b);
  a();
  EXPECT_EQ(*counter, 2);
}

TEST(InplaceFunction, LargeCaptureBoxesAndStillWorks) {
  // A capture bigger than the inline buffer takes the boxed path; the
  // destructor must release it exactly once (ASan would flag otherwise).
  struct Big {
    char payload[200] = {0};
    std::shared_ptr<int> counter;
  };
  auto counter = std::make_shared<int>(0);
  Big big;
  big.counter = counter;
  {
    sim::InplaceFunction<64> f([big] { ++*big.counter; });
    static_assert(sizeof(big) > 64);
    f();
    sim::InplaceFunction<64> g(std::move(f));
    g();
  }
  EXPECT_EQ(*counter, 2);
  EXPECT_EQ(counter.use_count(), 2);  // only `counter` and big's copy remain
}

TEST(InplaceFunction, DestroysCaptureWhenCleared) {
  auto token = std::make_shared<int>(7);
  sim::InplaceFunction<64> f([token] {});
  EXPECT_EQ(token.use_count(), 2);
  f = nullptr;
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InplaceFunction, NonVoidSignaturePassesArgsAndReturns) {
  // The RPC ResponseFn uses a non-void() signature; exercise argument
  // forwarding and return values through both the inline and boxed paths.
  sim::InplaceFunction<64, int(int, int)> add([](int a, int b) {
    return a + b;
  });
  EXPECT_EQ(add(2, 3), 5);

  std::string log;
  sim::InplaceFunction<64, void(const std::string&, int)> record(
      [&log](const std::string& s, int n) { log = s + ":" + std::to_string(n); });
  record("x", 7);
  EXPECT_EQ(log, "x:7");

  struct Big {
    char pad[200] = {0};
    int bias = 10;
  };
  sim::InplaceFunction<64, int(int)> boxed([big = Big{}](int v) {
    return v + big.bias;
  });
  EXPECT_EQ(boxed(1), 11);
  sim::InplaceFunction<64, int(int)> moved(std::move(boxed));
  EXPECT_EQ(moved(2), 12);
}

// ---- id map / slab ----------------------------------------------------------

TEST(IdMap, InsertFindErase) {
  sim::IdMap m;
  EXPECT_EQ(m.find(42), sim::IdMap::kNotFound);
  m.insert(42, 7);
  m.insert(1, 0);
  EXPECT_EQ(m.find(42), 7u);
  EXPECT_EQ(m.find(1), 0u);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.erase(42));
  EXPECT_FALSE(m.erase(42));
  EXPECT_EQ(m.find(42), sim::IdMap::kNotFound);
  EXPECT_EQ(m.find(1), 0u);
}

// Key 0 marks an empty cell, so a lookup of 0 must not match one: on a
// non-empty map it would hand back the empty cell's value, and erase(0)
// would "erase" it and shrink the size.
TEST(IdMap, KeyZeroIsAbsent) {
  sim::IdMap m;
  m.insert(5, 0);
  EXPECT_EQ(m.find(0), sim::IdMap::kNotFound);
  EXPECT_FALSE(m.erase(0));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(5), 0u);
}

TEST(IdSlab, KeyZeroIsAbsent) {
  sim::IdSlab<std::string> slab;
  slab.emplace(5, "five");
  EXPECT_EQ(slab.find(0), nullptr);
  EXPECT_FALSE(slab.erase(0));
  EXPECT_EQ(slab.size(), 1u);
  ASSERT_NE(slab.find(5), nullptr);
  EXPECT_EQ(*slab.find(5), "five");
}

TEST(IdMap, RandomizedChurnMatchesUnorderedMap) {
  // Drive the open-addressed table and a reference std::unordered_map with
  // the same operation stream; they must agree at every step.  The churn
  // (heavy interleaved erases) specifically exercises backward-shift
  // deletion, where an off-by-one corrupts probe runs silently.
  sim::Rng rng(0xc0ffee);
  sim::IdMap m;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  std::vector<std::uint64_t> live;
  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.5 || live.empty()) {
      // Insert a fresh key.  Mix small sequential-ish ids (the call-id
      // pattern) with sparse ones to create clustered probe runs.
      const std::uint64_t key =
          roll < 0.25
              ? static_cast<std::uint64_t>(rng.uniform_int(1, 4096))
              : (static_cast<std::uint64_t>(rng.uniform_int(1, 0xffffffff))
                     << 16 |
                 1);
      if (ref.contains(key)) continue;
      const auto value = static_cast<std::uint32_t>(step);
      m.insert(key, value);
      ref.emplace(key, value);
      live.push_back(key);
    } else if (roll < 0.85) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const std::uint64_t key = live[at];
      EXPECT_TRUE(m.erase(key));
      ref.erase(key);
      live[at] = live.back();
      live.pop_back();
    } else {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      EXPECT_EQ(m.find(live[at]), ref.at(live[at]));
      // A key absent from both sides must be absent from both.
      const std::uint64_t ghost =
          static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30)) << 40;
      if (!ref.contains(ghost)) {
        EXPECT_EQ(m.find(ghost), sim::IdMap::kNotFound);
        EXPECT_FALSE(m.erase(ghost));
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  // Final cross-check: every surviving key maps identically.
  for (const auto& [k, v] : ref) EXPECT_EQ(m.find(k), v);
}

TEST(IdSlab, EmplaceFindEraseRecyclesSlots) {
  sim::IdSlab<std::string> slab;
  slab.emplace(10, "ten");
  slab.emplace(20, "twenty");
  ASSERT_NE(slab.find(10), nullptr);
  EXPECT_EQ(*slab.find(10), "ten");
  EXPECT_EQ(slab.find(30), nullptr);
  EXPECT_TRUE(slab.erase(10));
  EXPECT_FALSE(slab.erase(10));
  EXPECT_EQ(slab.find(10), nullptr);
  // The freed slot is reused; heavy churn must not grow the slab.
  for (std::uint64_t id = 100; id < 1100; ++id) {
    slab.emplace(id, "x");
    EXPECT_TRUE(slab.erase(id));
  }
  EXPECT_EQ(slab.size(), 1u);  // only id 20 left
  int visited = 0;
  slab.for_each([&](std::uint64_t id, const std::string& v) {
    EXPECT_EQ(id, 20u);
    EXPECT_EQ(v, "twenty");
    ++visited;
  });
  EXPECT_EQ(visited, 1);
  slab.clear();
  EXPECT_TRUE(slab.empty());
  EXPECT_EQ(slab.find(20), nullptr);
}

// ---- buffer pool ------------------------------------------------------------

TEST(BufferPool, RecyclesBuffersAndRetainsCapacity) {
  sim::BufferPool pool;
  {
    sim::Payload p = pool.acquire();
    EXPECT_TRUE(p.attached());
    EXPECT_FALSE(p.recycled());
    p.mutable_bytes().assign(512, 0xab);
    EXPECT_EQ(p.size(), 512u);
  }  // handle drops -> buffer back on the free list
  EXPECT_EQ(pool.free_count(), 1u);
  sim::Payload q = pool.acquire();
  EXPECT_TRUE(q.recycled());
  EXPECT_EQ(q.size(), 0u);  // recycled buffers come back empty...
  EXPECT_GE(q.mutable_bytes().capacity(), 512u);  // ...but keep capacity
  EXPECT_EQ(pool.total_buffers(), 1u);
  EXPECT_EQ(pool.stats().acquired, 2u);
  EXPECT_EQ(pool.stats().fresh, 1u);
  EXPECT_EQ(pool.stats().recycled, 1u);
}

TEST(BufferPool, ShareBumpsRefCountAndFreesOnce) {
  sim::BufferPool pool;
  sim::Payload a = pool.acquire();
  a.mutable_bytes() = {1, 2, 3};
  EXPECT_EQ(a.ref_count(), 1u);
  sim::Payload b = a.share();
  sim::Payload c = b.share();
  EXPECT_EQ(a.ref_count(), 3u);
  EXPECT_EQ(b.data(), a.data());  // same storage, no copy
  b.reset();
  c.reset();
  EXPECT_EQ(a.ref_count(), 1u);
  EXPECT_EQ(pool.free_count(), 0u);  // still held by `a`
  a.reset();
  EXPECT_EQ(pool.free_count(), 1u);
}

TEST(BufferPool, WriterTakeRoundTripsThroughThePool) {
  // The Writer/pool contract the message path relies on: encode, take(),
  // drop, re-encode — steady state reuses one buffer.
  const std::size_t before = sim::BufferPool::local().stats().fresh;
  for (int i = 0; i < 8; ++i) {
    util::Writer w;
    w.u32(0x12345678);
    w.str("steady");
    sim::Payload p = w.take();
    util::Reader r(p);
    EXPECT_EQ(r.u32(), 0x12345678u);
    EXPECT_EQ(r.str(), "steady");
  }
  const std::size_t after = sim::BufferPool::local().stats().fresh;
  EXPECT_LE(after - before, 1u);  // at most the first iteration allocates
}

// ---- trial pool -------------------------------------------------------------

TEST(TrialPool, ResultsComeBackInIndexOrder) {
  sim::TrialPool pool(4);
  const std::vector<std::uint64_t> out = pool.map<std::uint64_t>(
      100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(TrialPool, MatchesSerialLoopForSeededEngineTrials) {
  // The core promise: a parallel ensemble of isolated engine trials is
  // byte-identical to the serial loop, whatever the worker count.
  auto trial = [](std::size_t i) {
    sim::Engine e;
    sim::Rng rng(0xfeed + i);
    std::uint64_t digest = 0;
    for (int k = 0; k < 200; ++k) {
      const sim::Time at = rng.uniform_time(1, 1000);
      auto id = e.schedule_at(at, [&digest, &e] { digest ^= e.now() * 31; });
      if (rng.chance(0.25)) e.cancel(id);
    }
    e.run();
    return digest ^ e.executed();
  };
  std::vector<std::uint64_t> serial;
  for (std::size_t i = 0; i < 64; ++i) serial.push_back(trial(i));
  for (unsigned workers : {1u, 3u, 8u}) {
    sim::TrialPool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    EXPECT_EQ(pool.map<std::uint64_t>(64, trial), serial);
  }
}

TEST(TrialPool, ReusableAcrossSweeps) {
  sim::TrialPool pool(2);
  for (int sweep = 0; sweep < 10; ++sweep) {
    const std::vector<int> out =
        pool.map<int>(17, [sweep](std::size_t i) {
          return sweep * 100 + static_cast<int>(i);
        });
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], sweep * 100 + static_cast<int>(i));
    }
  }
}

TEST(TrialPool, PropagatesFirstException) {
  sim::TrialPool pool(2);
  EXPECT_THROW(pool.run_indexed(32,
                                [](std::size_t i) {
                                  if (i == 5) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives a failed sweep.
  const std::vector<int> out =
      pool.map<int>(4, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
}

// ---- time ---------------------------------------------------------------------

TEST(Time, ConversionRoundTrips) {
  EXPECT_EQ(sim::from_seconds(2.0), 2 * sim::kSecond);
  EXPECT_DOUBLE_EQ(sim::to_seconds(1500 * sim::kMillisecond), 1.5);
}

// ---- rng -----------------------------------------------------------------------

TEST(Rng, DeterministicForEqualSeeds) {
  sim::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  sim::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntStaysInRange) {
  sim::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-3, 11);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 11);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  sim::Rng r(7);
  EXPECT_EQ(r.uniform_int(5, 5), 5);
  EXPECT_EQ(r.uniform_int(9, 2), 9);  // inverted: returns lo
}

TEST(Rng, DoubleInUnitInterval) {
  sim::Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceEdgeCases) {
  sim::Rng r(5);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
  EXPECT_FALSE(r.chance(-0.5));
  EXPECT_TRUE(r.chance(1.5));
}

TEST(Rng, ChanceApproximatesProbability) {
  sim::Rng r(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (r.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  sim::Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, ForkProducesIndependentStream) {
  sim::Rng a(42);
  sim::Rng child = a.fork();
  sim::Rng b(42);
  b.next_u64();  // same position as `a` after fork
  // The child stream must not replay the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformTimeInRange) {
  sim::Rng r(23);
  for (int i = 0; i < 100; ++i) {
    const sim::Time t = r.uniform_time(10, 20);
    EXPECT_GE(t, 10);
    EXPECT_LE(t, 20);
  }
}

// ---- stats ---------------------------------------------------------------------

TEST(Accumulator, BasicMoments) {
  util::Accumulator a;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(v);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Accumulator, EmptyIsZero) {
  util::Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
}

TEST(Samples, QuantilesInterpolate) {
  util::Samples s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
}

TEST(Samples, EmptyQuantileIsZero) {
  util::Samples s;
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

TEST(Histogram, BinsAndOverflow) {
  util::Histogram h(0.0, 10.0, 5);
  h.add(-1.0);
  h.add(0.0);
  h.add(1.9);
  h.add(5.0);
  h.add(10.0);
  h.add(99.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bin(0), 2u);  // 0.0 and 1.9
  EXPECT_EQ(h.bin(2), 1u);  // 5.0
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
  EXPECT_FALSE(h.render().empty());
}

// ---- codec -----------------------------------------------------------------------

TEST(Codec, PrimitiveRoundTrip) {
  util::Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);
  util::Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Codec, StringAndBlobRoundTrip) {
  util::Writer w;
  w.str("hello grid");
  w.str("");
  w.blob({0x01, 0x02, 0x03});
  util::Reader r(w.bytes());
  EXPECT_EQ(r.str(), "hello grid");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.blob(), (util::Bytes{0x01, 0x02, 0x03}));
  EXPECT_TRUE(r.done());
}

TEST(Codec, ReadPastEndMarksBad) {
  util::Writer w;
  w.u8(1);
  util::Reader r(w.bytes());
  r.u8();
  EXPECT_TRUE(r.ok());
  r.u32();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // stays bad, returns zero
}

TEST(Codec, TruncatedStringMarksBad) {
  util::Writer w;
  w.varint(100);  // claims 100 bytes
  w.u8('x');
  util::Reader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Codec, OverlongVarintMarksBad) {
  util::Bytes bad(11, 0xff);
  util::Reader r(bad);
  r.varint();
  EXPECT_FALSE(r.ok());
}

class CodecVarintSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecVarintSweep, RoundTrips) {
  util::Writer w;
  w.varint(GetParam());
  util::Reader r(w.bytes());
  EXPECT_EQ(r.varint(), GetParam());
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, CodecVarintSweep,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 129ULL, 16383ULL, 16384ULL,
                      (1ULL << 32) - 1, 1ULL << 32, UINT64_MAX - 1,
                      UINT64_MAX));

TEST(Codec, RandomizedMixedRoundTrip) {
  sim::Rng rng(31337);
  for (int trial = 0; trial < 50; ++trial) {
    util::Writer w;
    std::vector<std::uint64_t> vals;
    std::vector<std::string> strs;
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t v = rng.next_u64() >> (rng.uniform_int(0, 63));
      vals.push_back(v);
      w.varint(v);
      std::string s;
      const auto len = rng.uniform_int(0, 40);
      for (std::int64_t k = 0; k < len; ++k) {
        s += static_cast<char>(rng.uniform_int(0, 255));
      }
      strs.push_back(s);
      w.str(s);
    }
    util::Reader r(w.bytes());
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(r.varint(), vals[static_cast<size_t>(i)]);
      EXPECT_EQ(r.str(), strs[static_cast<size_t>(i)]);
    }
    EXPECT_TRUE(r.done());
  }
}

// ---- status -----------------------------------------------------------------------

TEST(Status, OkByDefault) {
  util::Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  util::Status s(util::ErrorCode::kTimeout, "deadline");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), util::ErrorCode::kTimeout);
  EXPECT_EQ(s.to_string(), "TIMEOUT: deadline");
}

TEST(Result, ValueAndError) {
  util::Result<int> ok(7);
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 7);
  util::Result<int> err(util::ErrorCode::kNotFound, "gone");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.status().code(), util::ErrorCode::kNotFound);
}

TEST(Result, TakeMovesValue) {
  util::Result<std::string> r(std::string("payload"));
  const std::string v = r.take();
  EXPECT_EQ(v, "payload");
}


TEST(IdSlab, ForEachVisitsSlotOrderNotInsertionOrder) {
  // The determinism contract: iteration order is a pure function of the
  // emplace/erase history.  Erasing id 2 vacates slot 1; the next emplace
  // recycles that slot, so id 4 is visited between 1 and 3.
  sim::IdSlab<int> slab;
  slab.emplace(1, 10);
  slab.emplace(2, 20);
  slab.emplace(3, 30);
  slab.erase(2);
  slab.emplace(4, 40);
  std::vector<std::uint64_t> order;
  slab.for_each([&](std::uint64_t id, int&) { order.push_back(id); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 4, 3}));
}

TEST(IdSlab, ConsistentHoldsAcrossRandomChurn) {
  sim::Rng rng(0xc0ffee);
  sim::IdSlab<std::uint64_t> slab;
  std::vector<std::uint64_t> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.chance(0.6)) {
      const std::uint64_t id = rng.uniform_int(1, 1u << 20);
      if (slab.find(id) == nullptr) {
        slab.emplace(id, id * 3);
        live.push_back(id);
      }
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      slab.erase(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_TRUE(slab.consistent()) << "after step " << step;
    ASSERT_EQ(slab.size(), live.size());
  }
  for (const std::uint64_t id : live) {
    ASSERT_NE(slab.find(id), nullptr);
    EXPECT_EQ(*slab.find(id), id * 3);
  }
}

}  // namespace
}  // namespace grid
