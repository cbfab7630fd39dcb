// Wall-clock microbenchmarks of the substrate hot paths (google-benchmark).
//
// These measure the *simulator's* real-time performance — event dispatch,
// codec, RSL parsing, network delivery, and a full end-to-end DUROC
// co-allocation per second of host CPU — to document that the experiment
// harness itself scales to the paper's 1386-process runs.
#include <benchmark/benchmark.h>

#include "app/behaviors.hpp"
#include "core/duroc.hpp"
#include "rsl/parser.hpp"
#include "simkit/codec.hpp"
#include "simkit/engine.hpp"
#include "testbed/grid.hpp"

using namespace grid;

namespace {

void BM_EngineScheduleAndRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < n; ++i) {
      engine.schedule_at(i, [] {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.executed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleAndRun)->Arg(1000)->Arg(100000);

void BM_EngineCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(engine.schedule_at(i, [] {}));
    }
    for (auto& id : ids) engine.cancel(id);
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineCancel);

void BM_CodecRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    util::Writer w;
    for (int i = 0; i < 100; ++i) {
      w.varint(static_cast<std::uint64_t>(i) * 2654435761u);
      w.str("resourceManagerContact");
      w.i64(i);
    }
    util::Reader r(w.bytes());
    std::uint64_t sum = 0;
    for (int i = 0; i < 100; ++i) {
      sum += r.varint();
      benchmark::DoNotOptimize(r.str());
      sum += static_cast<std::uint64_t>(r.i64());
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_CodecRoundTrip);

void BM_RslParseFigure1(benchmark::State& state) {
  const std::string rsl = testbed::rsl_multi({
      testbed::rsl_subjob("RM1", 1, "master", "required"),
      testbed::rsl_subjob("RM2", 4, "worker", "interactive"),
      testbed::rsl_subjob("RM3", 4, "worker", "interactive"),
      testbed::rsl_subjob("RM4", 4, "worker", "interactive"),
  });
  for (auto _ : state) {
    auto spec = rsl::parse_multi_request(rsl);
    benchmark::DoNotOptimize(spec.is_ok());
  }
}
BENCHMARK(BM_RslParseFigure1);

void BM_NetworkDelivery(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    net::Network network(engine);
    struct Sink : net::Node {
      void handle_message(const net::Message&) override { ++count; }
      int count = 0;
    } sink;
    const net::NodeId src = network.attach(&sink);
    const net::NodeId dst = network.attach(&sink);
    for (int i = 0; i < 1000; ++i) {
      network.send(src, dst, 1, {});
    }
    engine.run();
    benchmark::DoNotOptimize(sink.count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_NetworkDelivery);

void BM_FullCoallocation(benchmark::State& state) {
  // End-to-end: grid build + GSI + GRAM + DUROC + barrier for
  // range(0) processes across 4 subjobs, in real time.
  const auto procs = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    testbed::Grid grid(testbed::CostModel::fast());
    for (int i = 1; i <= 4; ++i) {
      grid.add_host("host" + std::to_string(i), 512);
    }
    app::BarrierStats stats;
    app::install_app(grid.executables(), "app", app::StartupProfile{},
                     &stats);
    auto mech = grid.make_coallocator("agent", "/CN=bench");
    core::DurocAllocator duroc(*mech);
    bool released = false;
    auto* req = duroc.create_request(
        {.on_subjob = nullptr,
         .on_released = [&](const core::RuntimeConfig&) { released = true; },
         .on_terminal = nullptr});
    std::vector<std::string> subs;
    for (int i = 1; i <= 4; ++i) {
      subs.push_back(testbed::rsl_subjob("host" + std::to_string(i),
                                         procs / 4, "app", "required"));
    }
    req->add_rsl(testbed::rsl_multi(subs));
    req->commit();
    grid.run();
    if (!released) state.SkipWithError("co-allocation failed");
  }
  state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_FullCoallocation)->Arg(64)->Arg(512)->Arg(1386);

}  // namespace

BENCHMARK_MAIN();
