// Engine-core microbenchmark: schedule/cancel/fire throughput of the slab +
// 4-ary-heap + inplace-callback engine versus the seed engine, plus the
// TrialPool serial-vs-parallel ensemble comparison.
//
// The seed engine (heap-allocated entries, `std::function` callbacks,
// `unordered_map` cancellation index, lazy tombstone removal) is embedded
// below verbatim as `legacy::Engine`, so the comparison is measured inside
// one binary on the same workload rather than against a remembered number.
//
// Three event-loop patterns, chosen to match real traffic in this repo:
//   schedule_fire — pure event-loop throughput (network message delivery);
//   schedule_cancel — timers armed and disarmed before firing (RPC
//     timeouts, heartbeat deadlines: the dominant pattern since PR 1);
//   timer_churn — the full RPC shape: completion fires and cancels its
//     own timeout, then re-arms the next pair.
//
// Writes the measurements to BENCH_engine.json (override with argv[1]);
// scripts/run_benches.sh diffs that against the committed baseline.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "app/behaviors.hpp"
#include "core/coallocator.hpp"
#include "simkit/engine.hpp"
#include "simkit/rng.hpp"
#include "simkit/trialpool.hpp"
#include "testbed/grid.hpp"
#include "testbed/report.hpp"

using namespace grid;

namespace legacy {

// The seed implementation of sim::Engine, kept as the measurement baseline.
using Time = sim::Time;

class EventId {
 public:
  EventId() = default;

 private:
  friend class Engine;
  explicit EventId(std::uint64_t seq) : seq_(seq) {}
  std::uint64_t seq_ = 0;
};

class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  ~Engine() {
    while (!queue_.empty()) {
      delete queue_.top();
      queue_.pop();
    }
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  EventId schedule_at(Time t, Callback fn) {
    if (t < now_) t = now_;
    const std::uint64_t seq = next_seq_++;
    auto* e = new Entry{t, seq, std::move(fn), false};
    queue_.push(e);
    index_.emplace(seq, e);
    ++live_;
    return EventId(seq);
  }

  EventId schedule_after(Time delay, Callback fn) {
    return schedule_at(
        delay >= sim::kTimeNever - now_ ? sim::kTimeNever : now_ + delay,
        std::move(fn));
  }

  bool cancel(EventId id) {
    auto it = index_.find(id.seq_);
    if (it == index_.end()) return false;
    it->second->cancelled = true;
    it->second->fn = nullptr;
    index_.erase(it);
    --live_;
    return true;
  }

  bool step() {
    Entry* e = pop_next();
    if (e == nullptr) return false;
    now_ = e->at;
    index_.erase(e->seq);
    --live_;
    ++executed_;
    Callback fn = std::move(e->fn);
    delete e;
    fn();
    return true;
  }

  void run() {
    while (step()) {
    }
  }

  std::uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    Callback fn;
    bool cancelled = false;
  };
  struct Order {
    bool operator()(const Entry* a, const Entry* b) const {
      if (a->at != b->at) return a->at > b->at;
      return a->seq > b->seq;
    }
  };

  Entry* pop_next() {
    while (!queue_.empty()) {
      Entry* e = queue_.top();
      queue_.pop();
      if (e->cancelled) {
        delete e;
        continue;
      }
      return e;
    }
    return nullptr;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::priority_queue<Entry*, std::vector<Entry*>, Order> queue_;
  std::unordered_map<std::uint64_t, Entry*> index_;
};

}  // namespace legacy

namespace {

constexpr int kBatch = 4096;      // outstanding events per round
constexpr int kRounds = 400;      // rounds per pattern
volatile std::uint64_t g_sink = 0;  // defeats callback elision

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- the three event-loop patterns, templated over the engine ------------

/// Schedule a batch at scattered future times, drain, repeat.
/// Ops counted: one schedule + one fire per event.
template <typename EngineT>
double bench_schedule_fire() {
  EngineT e;
  sim::Rng rng(0x5eedf00d);
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    const sim::Time base = e.now();
    for (int i = 0; i < kBatch; ++i) {
      e.schedule_at(base + sim::kNanosecond * rng.uniform_int(1, 1000),
                    [] { g_sink = g_sink + 1; });
    }
    e.run();
  }
  return 2.0 * kBatch * kRounds / seconds_since(t0);
}

/// Arm a batch of far-future timers, then disarm every one before it can
/// fire — the retry/heartbeat pattern.  Ops: one schedule + one cancel.
template <typename EngineT, typename EventIdT>
double bench_schedule_cancel() {
  EngineT e;
  sim::Rng rng(0xcafe);
  std::vector<EventIdT> ids(kBatch);
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    const sim::Time base = e.now();
    for (int i = 0; i < kBatch; ++i) {
      ids[static_cast<std::size_t>(i)] =
          e.schedule_at(base + sim::kMillisecond +
                            sim::kNanosecond * rng.uniform_int(1, 1000),
                        [] { g_sink = g_sink + 1; });
    }
    for (int i = 0; i < kBatch; ++i) {
      e.cancel(ids[static_cast<std::size_t>(i)]);
    }
  }
  return 2.0 * kBatch * kRounds / seconds_since(t0);
}

/// The full RPC shape: each completion event cancels its paired timeout
/// and re-arms the next (completion, timeout) pair.  Ops: two schedules,
/// one cancel, one fire per logical call.
template <typename EngineT, typename EventIdT>
double bench_timer_churn() {
  EngineT e;
  const std::uint64_t calls =
      static_cast<std::uint64_t>(kBatch) * kRounds / 4;
  struct Loop {
    EngineT* e;
    std::uint64_t remaining;
    std::function<void()> next;
  } loop{&e, calls, nullptr};
  loop.next = [&loop] {
    if (loop.remaining-- == 0) return;
    // Timeout armed far in the future; completion beats it and disarms it.
    EventIdT timeout = loop.e->schedule_after(
        sim::kMillisecond, [] { g_sink = g_sink + 1; });
    // `loop` lives in the enclosing bench frame, which blocks in run()
    // until every event has fired.  gridlint: allow(dangling-capture)
    loop.e->schedule_after(10 * sim::kNanosecond, [&loop, timeout] {
      loop.e->cancel(timeout);
      loop.next();
    });
  };
  const auto t0 = std::chrono::steady_clock::now();
  loop.next();
  e.run();
  return 4.0 * static_cast<double>(calls) / seconds_since(t0);
}

// ---- trial-ensemble comparison -------------------------------------------

/// One small DUROC co-allocation trial, the unit of every ensemble sweep.
std::uint64_t run_ensemble_trial(std::uint64_t seed) {
  testbed::Grid grid(testbed::CostModel::paper(), seed);
  app::BarrierStats stats;
  for (int i = 1; i <= 3; ++i) {
    grid.add_host("site" + std::to_string(i), 16);
  }
  app::StartupProfile profile;
  profile.init_delay = 50 * sim::kMillisecond;
  profile.init_jitter = 100 * sim::kMillisecond;
  profile.run_time = 5 * sim::kSecond;
  app::install_app(grid.executables(), "sim", profile, &stats, seed * 7 + 1);
  auto mech = grid.make_coallocator("agent", "/CN=micro", {});
  sim::Time released_at = -1;
  core::RequestCallbacks cbs;
  cbs.on_released = [&](const core::RuntimeConfig&) {
    released_at = grid.engine().now();
  };
  core::CoallocationRequest* req = mech->create_request(std::move(cbs));
  std::vector<std::string> subs;
  for (int i = 1; i <= 3; ++i) {
    subs.push_back(
        testbed::rsl_subjob("site" + std::to_string(i), 4, "sim", "required"));
  }
  if (!req->add_rsl(testbed::rsl_multi(subs)).is_ok()) return 0;
  req->start();
  if (!req->commit().is_ok()) return 0;
  grid.run_until(5 * sim::kMinute);
  return static_cast<std::uint64_t>(released_at) ^ grid.engine().executed();
}

struct EnsembleResult {
  double serial_s = 0;
  double parallel_s = 0;
  unsigned workers = 0;
  unsigned hw_threads = 0;
  bool identical = false;
};

EnsembleResult bench_ensemble(int trials) {
  EnsembleResult r;
  std::vector<std::uint64_t> serial(static_cast<std::size_t>(trials));
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < trials; ++i) {
    serial[static_cast<std::size_t>(i)] =
        run_ensemble_trial(1000 + static_cast<std::uint64_t>(i));
  }
  r.serial_s = seconds_since(t0);
  sim::TrialPool pool;
  r.workers = pool.workers();
  r.hw_threads = std::thread::hardware_concurrency();
  t0 = std::chrono::steady_clock::now();
  const std::vector<std::uint64_t> parallel = pool.map<std::uint64_t>(
      static_cast<std::size_t>(trials), [](std::size_t i) {
        return run_ensemble_trial(1000 + static_cast<std::uint64_t>(i));
      });
  r.parallel_s = seconds_since(t0);
  r.identical = serial == parallel;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  testbed::print_heading(
      "Engine core: slab + 4-ary heap + inplace callbacks vs. seed engine");

  const double new_fire = bench_schedule_fire<sim::Engine>();
  const double old_fire = bench_schedule_fire<legacy::Engine>();
  const double new_cancel =
      bench_schedule_cancel<sim::Engine, sim::EventId>();
  const double old_cancel =
      bench_schedule_cancel<legacy::Engine, legacy::EventId>();
  const double new_churn = bench_timer_churn<sim::Engine, sim::EventId>();
  const double old_churn =
      bench_timer_churn<legacy::Engine, legacy::EventId>();

  const double s_fire = new_fire / old_fire;
  const double s_cancel = new_cancel / old_cancel;
  const double s_churn = new_churn / old_churn;
  const double s_geomean = std::cbrt(s_fire * s_cancel * s_churn);

  testbed::Table table(
      {"pattern", "seed_Mops", "new_Mops", "speedup"});
  auto row = [&](const char* name, double old_ops, double new_ops) {
    table.add_row({name, testbed::Table::num(old_ops / 1e6, 2),
                   testbed::Table::num(new_ops / 1e6, 2),
                   testbed::Table::num(new_ops / old_ops, 2) + "x"});
  };
  row("schedule_fire", old_fire, new_fire);
  row("schedule_cancel", old_cancel, new_cancel);
  row("timer_churn", old_churn, new_churn);
  testbed::print_table(table);

  testbed::print_heading("Trial ensemble: serial loop vs TrialPool");
  const EnsembleResult ens = bench_ensemble(256);
  const double ens_speedup =
      ens.parallel_s > 0 ? ens.serial_s / ens.parallel_s : 0;
  testbed::Table etable({"hw_threads", "workers", "serial_s", "parallel_s",
                         "speedup", "byte_identical"});
  etable.add_row(
      {testbed::Table::num(static_cast<std::int64_t>(ens.hw_threads)),
       testbed::Table::num(static_cast<std::int64_t>(ens.workers)),
       testbed::Table::num(ens.serial_s, 3),
       testbed::Table::num(ens.parallel_s, 3),
       testbed::Table::num(ens_speedup, 2) + "x",
       ens.identical ? "yes" : "NO"});
  testbed::print_table(etable);

  std::FILE* f = std::fopen(out_path, "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": \"grid.bench_engine.v1\",\n"
                 "  \"engine\": {\n"
                 "    \"schedule_fire_Mops\": %.2f,\n"
                 "    \"schedule_cancel_Mops\": %.2f,\n"
                 "    \"timer_churn_Mops\": %.2f,\n"
                 "    \"speedup_vs_seed\": {\n"
                 "      \"schedule_fire\": %.2f,\n"
                 "      \"schedule_cancel\": %.2f,\n"
                 "      \"timer_churn\": %.2f,\n"
                 "      \"geomean\": %.2f\n"
                 "    }\n"
                 "  },\n"
                 "  \"trial_ensemble\": {\n"
                 "    \"hw_threads\": %u,\n"
                 "    \"workers\": %u,\n"
                 "    \"serial_s\": %.3f,\n"
                 "    \"parallel_s\": %.3f,\n"
                 "    \"speedup\": %.2f,\n"
                 "    \"byte_identical\": %s\n"
                 "  }\n"
                 "}\n",
                 new_fire / 1e6, new_cancel / 1e6, new_churn / 1e6, s_fire,
                 s_cancel, s_churn, s_geomean, ens.hw_threads, ens.workers,
                 ens.serial_s, ens.parallel_s, ens_speedup,
                 ens.identical ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path);
  }

  // Ensemble gate: with real parallel hardware (>=4 workers) the pool must
  // scale >=2x; on fewer workers — e.g. a single-CPU CI box, where a
  // wall-clock speedup is physically impossible — it must at least not
  // pessimize the sweep (single-worker pools run inline), and in every
  // case the parallel results must be byte-identical to the serial loop.
  const double ens_want = ens.workers >= 4 ? 2.0 : 0.85;
  const bool ens_ok = ens.identical && ens_speedup >= ens_want;
  const bool ok = s_geomean >= 3.0 && ens_ok;
  std::printf(
      "\nshape check: engine core >=3x over the seed engine (geomean %.2fx),\n"
      "ensemble speedup %.2fx >= %.2fx at %u worker(s) on %u hardware "
      "thread(s),\nand parallel ensemble byte-identical to serial: %s\n",
      s_geomean, ens_speedup, ens_want, ens.workers, ens.hw_threads,
      ens_ok && s_geomean >= 3.0 ? "HOLDS" : "VIOLATED");
  return ok ? 0 : 1;
}
