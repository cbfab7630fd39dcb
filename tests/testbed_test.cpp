// Tests for the testbed assembly layer, reporting, and the app behaviour /
// failure-injection substrate.
#include <gtest/gtest.h>

#include "app/failure.hpp"
#include "rsl/parser.hpp"
#include "test_util.hpp"
#include "testbed/report.hpp"
#include "testbed/scale.hpp"

namespace grid {
namespace {

// ---- reporting ----------------------------------------------------------------

TEST(Report, TableAlignsAndRules) {
  testbed::Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"much-longer-name", "22.25"});
  const std::string out = t.render();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Numeric cells are right-aligned: the short number is padded left.
  EXPECT_NE(out.find("  1.5"), std::string::npos);
}

TEST(Report, RowsPaddedToHeaderCount) {
  testbed::Table t({"a", "b", "c"});
  t.add_row({"only-one"});
  const std::string out = t.render();
  EXPECT_NE(out.find("only-one"), std::string::npos);
}

TEST(Report, NumFormatting) {
  EXPECT_EQ(testbed::Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(testbed::Table::num(std::int64_t{42}), "42");
}

// ---- testbed grid ----------------------------------------------------------------

TEST(Testbed, HostLookupAndResolver) {
  testbed::Grid grid(testbed::CostModel::fast());
  grid.add_host("alpha", 16);
  grid.add_host("beta", 32, testbed::SchedulerKind::kFcfs);
  EXPECT_EQ(grid.host_count(), 2u);
  EXPECT_NE(grid.host("alpha"), nullptr);
  EXPECT_EQ(grid.host("gamma"), nullptr);
  auto resolver = grid.resolver();
  EXPECT_TRUE(resolver("alpha").is_ok());
  EXPECT_EQ(resolver("gamma").status().code(), util::ErrorCode::kNotFound);
  EXPECT_EQ(grid.host("beta")->scheduler().policy(), "fcfs");
  EXPECT_EQ(grid.host("alpha")->scheduler().policy(), "fork");
  EXPECT_EQ(grid.host("alpha")->scheduler().total_processors(), 16);
}

TEST(Testbed, SchedulerKindsExposeTypedAccessors) {
  testbed::Grid grid(testbed::CostModel::fast());
  grid.add_host("f", 8, testbed::SchedulerKind::kFork);
  grid.add_host("b", 8, testbed::SchedulerKind::kBackfill);
  grid.add_host("r", 8, testbed::SchedulerKind::kReservation);
  EXPECT_EQ(grid.host("f")->batch_scheduler(), nullptr);
  EXPECT_NE(grid.host("b")->batch_scheduler(), nullptr);
  EXPECT_NE(grid.host("r")->reservation_scheduler(), nullptr);
  EXPECT_EQ(grid.host("b")->scheduler().policy(), "easy-backfill");
  EXPECT_EQ(grid.host("r")->scheduler().policy(), "fcfs+reservations");
}

TEST(Testbed, CrashAndRestoreAreObservable) {
  testbed::Grid grid(testbed::CostModel::fast());
  auto& host = grid.add_host("h", 8);
  EXPECT_TRUE(host.is_up());
  host.crash();
  EXPECT_FALSE(host.is_up());
  host.restore();
  EXPECT_TRUE(host.is_up());
}

TEST(TestbedDeathTest, GridRejectsAnyEngineCountButOne) {
  // The third constructor argument survives only for the benchmark
  // harness, which passes 1; every other value aborts in every build.
  EXPECT_DEATH(testbed::Grid(testbed::CostModel::fast(), 1, 2),
               "exactly one engine");
  EXPECT_DEATH(testbed::Grid(testbed::CostModel::fast(), 1, 0),
               "exactly one engine");
}

TEST(Testbed, RslHelpersEmitParseableRequests) {
  const std::string text = testbed::rsl_multi(
      {testbed::rsl_subjob("h1", 4, "exe", "interactive", "workers"),
       testbed::rsl_subjob("h2", 1, "exe")});
  auto jobs = rsl::parse_multi_request(text);
  ASSERT_TRUE(jobs.is_ok()) << jobs.status().to_string();
  ASSERT_EQ(jobs.value().size(), 2u);
  EXPECT_EQ(jobs.value()[0].label, "workers");
  EXPECT_EQ(jobs.value()[0].start_type, rsl::SubjobStartType::kInteractive);
  EXPECT_EQ(jobs.value()[1].count, 1);
}

// ---- app behaviours -----------------------------------------------------------------

TEST(AppBehavior, BarrierStatsAggregates) {
  app::BarrierStats stats;
  stats.records.push_back({1, 0, 10 * sim::kSecond, 14 * sim::kSecond});
  stats.records.push_back({1, 1, 10 * sim::kSecond, 18 * sim::kSecond});
  stats.records.push_back({1, 2, -1, -1});  // never released
  auto samples = stats.wait_samples();
  EXPECT_EQ(samples.count(), 2u);
  EXPECT_DOUBLE_EQ(samples.min(), 4.0);
  EXPECT_DOUBLE_EQ(samples.max(), 8.0);
  stats.clear();
  EXPECT_TRUE(stats.records.empty());
}

TEST(AppBehavior, PerJobFailureScopeFailsWholeSubjobOnce) {
  // failure_per_job: only rank 0 draws, so the per-subjob failure rate is
  // exactly p, independent of subjob width.
  int failed_subjobs = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    test::SmallGrid g(1);
    app::StartupProfile profile;
    profile.failure_probability = 0.5;
    profile.failure_per_job = true;
    profile.mode_on_chance = app::FailureMode::kFailedCheck;
    app::install_app(g.grid->executables(), "risky", profile, &g.stats,
                     1000 + static_cast<std::uint64_t>(t));
    test::Outcome outcome;
    auto* req = g.coallocator->create_request(outcome.callbacks());
    rsl::JobRequest j;
    j.resource_manager_contact = "host1";
    j.executable = "risky";
    j.count = 32;  // wide subjob: per-process draws would fail ~always
    req->add_subjob(std::move(j));
    req->commit();
    g.grid->run();
    if (!outcome.released) ++failed_subjobs;
  }
  // ~50% of trials fail; with per-process draws 32-wide subjobs would fail
  // in essentially 100% of trials.
  EXPECT_GT(failed_subjobs, 8);
  EXPECT_LT(failed_subjobs, 32);
}

TEST(AppBehavior, FailureInjectorSchedulesWindows) {
  sim::Engine engine;
  net::Network network(engine);
  struct Sink : net::Node {
    void handle_message(const net::Message&) override { ++received; }
    int received = 0;
  } sink;
  const net::NodeId a = network.attach(&sink);
  const net::NodeId b = network.attach(&sink);
  app::FailureInjector injector(network);
  injector.partition_between(a, b, sim::kSecond, 2 * sim::kSecond);
  injector.crash_at(a, 3 * sim::kSecond);
  injector.restore_at(a, 4 * sim::kSecond);
  EXPECT_EQ(injector.injected_events(), 3u);
  // During the partition window nothing is delivered.
  engine.schedule_at(1500 * sim::kMillisecond,
                     [&] { network.send(a, b, 1, {}); });
  // After the partition lifts, delivery works again.
  engine.schedule_at(2500 * sim::kMillisecond,
                     [&] { network.send(a, b, 1, {}); });
  // While crashed the node cannot receive.
  engine.schedule_at(3500 * sim::kMillisecond,
                     [&] { network.send(b, a, 1, {}); });
  // After restore it can.
  engine.schedule_at(4500 * sim::kMillisecond,
                     [&] { network.send(b, a, 1, {}); });
  engine.run();
  EXPECT_EQ(sink.received, 2);
}

TEST(AppBehavior, InstallAppIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    test::SmallGrid g(2);
    app::StartupProfile profile;
    profile.init_jitter = sim::kSecond;
    profile.failure_probability = 0.3;
    profile.mode_on_chance = app::FailureMode::kFailedCheck;
    app::install_app(g.grid->executables(), "x", profile, &g.stats, seed);
    test::Outcome outcome;
    auto* req = g.coallocator->create_request(outcome.callbacks());
    req->add_rsl(testbed::rsl_multi({testbed::rsl_subjob("host1", 8, "x"),
                                     testbed::rsl_subjob("host2", 8, "x")}));
    req->commit();
    g.grid->run();
    return std::make_pair(outcome.released, g.grid->engine().now());
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_EQ(run_once(8), run_once(8));
}

// ---- per-host cost scaling ----------------------------------------------------

TEST(HostCostScale, ScaledHostStartsSlower) {
  // Two one-host grids differing only in cost_scale: the scaled host pays
  // proportionally more for GSI + gatekeeper work, so the same atomic
  // request releases strictly later.
  auto release_time = [](double scale) {
    test::SmallGrid g(0);
    testbed::HostSpec spec;
    spec.name = "host1";
    spec.processors = 64;
    spec.cost_scale = scale;
    g.grid->add_host(spec);
    test::Outcome outcome;
    auto* req = g.coallocator->create_request(outcome.callbacks());
    EXPECT_TRUE(
        req->add_rsl(testbed::rsl_multi({testbed::rsl_subjob("host1", 8, "app")}))
            .is_ok());
    req->commit();
    g.grid->run();
    EXPECT_TRUE(outcome.released) << outcome.status.to_string();
    return g.grid->engine().now();
  };
  const sim::Time base = release_time(1.0);
  const sim::Time scaled = release_time(8.0);
  EXPECT_GT(scaled, base);
}

// ---- grid-at-scale scenario ---------------------------------------------------

testbed::ScaleSpec tiny_scale_spec(std::uint64_t seed) {
  testbed::ScaleSpec spec;
  spec.resources = 12;
  spec.seed = seed;
  spec.duration = 10 * sim::kMinute;
  spec.background_jobs_per_day = 40'000.0;  // ~280 jobs in the window
  spec.transactions_per_day = 2'000.0;      // ~14 transactions
  spec.agents = 1;
  spec.broker_candidates = 6;
  spec.min_subjobs = 2;
  spec.max_subjobs = 3;
  spec.publish_interval = 10 * sim::kSecond;
  return spec;
}

TEST(ScaleScenario, SustainsBackgroundAndCoallocationTraffic) {
  testbed::ScaleScenario scenario(tiny_scale_spec(21));
  const testbed::ScaleMetrics m = scenario.run();
  EXPECT_EQ(m.simulated, 10 * sim::kMinute);
  EXPECT_GT(m.background_submitted, 100u);
  EXPECT_GT(m.background_completed, 0u);
  EXPECT_GT(m.txn_attempted, 0u);
  EXPECT_GT(m.txn_placed, 0u);
  EXPECT_GT(m.txn_released, 0u);
  EXPECT_GE(m.gis_queries_served, m.txn_attempted);
  EXPECT_GT(m.info.publish_rounds, 0u);
  EXPECT_GT(m.jobs_total(), m.background_submitted);
}

TEST(ScaleScenario, IsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    testbed::ScaleScenario scenario(tiny_scale_spec(seed));
    return scenario.run();
  };
  const testbed::ScaleMetrics a = run_once(33);
  const testbed::ScaleMetrics b = run_once(33);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.background_submitted, b.background_submitted);
  EXPECT_EQ(a.txn_placed, b.txn_placed);
  EXPECT_EQ(a.txn_released, b.txn_released);
  const testbed::ScaleMetrics c = run_once(34);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

}  // namespace
}  // namespace grid
