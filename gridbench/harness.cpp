// Grid benchmark harness: one simulated workload per process.
//
// Composes the same public pieces testbed::ScaleScenario composes (Grid and
// its hosts, LoadInformationService, GisServer, ResourceBroker,
// Coallocator, install_app) in the same order with the same RNG streams, so
// a summary-ranked workload reproduces ScaleScenario's fingerprint for the
// same spec.  Owning the harness lets it time every call it makes into a
// layer and observe every callback, without touching the simulator.
//
//   gridbench --workload NAME --seed N --mode MODE [--small]
//                    [--pool-seed N]
//
// Modes:
//   run        untraced: set up, run, report end-to-end numbers
//   traced     same run with host-time spans around layer calls, the
//              information service reading the schedulers through timing
//              wrappers, and the engine advanced in kSamples equal slices
//              (one simulated hour on grid_day) with a sample of wall time,
//              RSS, pending events, queued jobs, live network nodes and
//              live requests after each
//   reference  run testbed::ScaleScenario on the workload's spec (the
//              output check run.py compares the harness against)
//   probe      time the machine-speed probe (no workload or seed needed)
//
// --small shrinks every workload to smoke-test size; --pool-seed draws the
// resource pool from another seed than the fixed kPoolSeed.
//
// Prints one JSON object on stdout.  Simulated outputs (everything under
// "sim") are a pure function of workload, seed and size; host-time numbers
// are not.  Set-up and run are timed both by wall clock and by this
// process's CPU time, which leaves out time the host gives other tenants.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app/behaviors.hpp"
#include "core/coallocator.hpp"
#include "info/broker.hpp"
#include "info/gis.hpp"
#include "sched/infoservice.hpp"
#include "sched/predict.hpp"
#include "simkit/rng.hpp"
#include "testbed/grid.hpp"
#include "testbed/scale.hpp"

using namespace grid;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages = 0;
  long resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- machine-speed probe -----------------------------------------------------

volatile std::uint64_t g_probe_sink = 0;  // keeps the probe's work observable

/// Times, in CPU seconds, a fixed amount of the kinds of work the simulator
/// spends its time on: binary-heap operations, small-object allocation,
/// ordered-map updates and bulk copies.  On a shared host, other tenants
/// slow this probe and the simulator alike, so run.py divides host times by
/// it.  Of the mixes tried, this one tracked the simulator's run-to-run
/// variation best; one dominated by a pointer chase over 64 MB did worse.
double probe_cpu_s() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next_random = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const double t0 = cpu_seconds();
  std::uint64_t checksum = 0;
  std::vector<std::uint64_t> heap;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 250'000; ++i) {
      heap.push_back(next_random());
      std::push_heap(heap.begin(), heap.end());
    }
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end());
      checksum += heap.back();
      heap.pop_back();
    }
  }
  std::vector<std::unique_ptr<std::uint64_t[]>> live(1 << 16);
  for (int i = 0; i < 1'000'000; ++i) {
    std::unique_ptr<std::uint64_t[]>& slot = live[next_random() & 0xffff];
    slot = std::make_unique<std::uint64_t[]>(1 + (next_random() & 15));
    slot[0] = checksum;
  }
  std::map<std::uint64_t, std::uint64_t> ordered;
  for (std::uint64_t i = 0; i < 300'000; ++i) {
    ordered[next_random() & 0xfffff] = i;
    if (ordered.size() > 50'000) ordered.erase(ordered.begin());
  }
  checksum += ordered.size();
  std::vector<char> from(32 << 20, 1);
  std::vector<char> to(from.size());
  for (std::size_t i = 0; i < 4; ++i) {
    std::memcpy(to.data(), from.data(), from.size());
    from[i] = to[i + 1];
  }
  checksum += static_cast<std::uint64_t>(to[7]);
  const double took = cpu_seconds() - t0;
  g_probe_sink = checksum;
  return took;
}

// ---- workloads ---------------------------------------------------------------

/// ScaleScenario's default seed.  The resource pool (host sizes, policies
/// and speeds) of every workload is drawn from it, so that --seed varies the
/// traffic on a fixed grid: drawing a new pool per seed moves the latency
/// tail more than any traffic does.
constexpr std::uint64_t kPoolSeed = 0x5ca1eULL;

/// Deadline of every broker selection: each candidate query times out by it.
constexpr sim::Time kSelectTimeout = 10 * sim::kSecond;

/// Samples a traced run takes, evenly over the simulated duration.
constexpr int kSamples = 24;

struct Workload {
  std::string name;
  testbed::ScaleSpec spec;
  /// Seed of the resource pool; equal to spec.seed, the harness composes
  /// exactly testbed::ScaleScenario(spec).
  std::uint64_t pool_seed = kPoolSeed;
  /// Rank from full-snapshot replies (ResourceBroker::select) instead of
  /// aggregate summaries; both rankings must agree.
  bool detail_ranking = false;
};

bool make_workload(const std::string& name, std::uint64_t seed, bool small,
                   Workload& w) {
  w.name = name;
  w.spec = testbed::ScaleSpec{};
  w.spec.seed = seed;
  if (name == "grid_day") {
    // ScaleScenario's default spec: deep, overloaded queues on the small
    // hosts; the per-transaction path is light.
  } else if (name == "coalloc_storm") {
    // Background load below every host's capacity, ten times grid_day's
    // co-allocation rate: the transaction path does the work.  Three hours
    // leave the traced samples two hours past warm-up.
    w.spec.background_jobs_per_day = 250'000.0;
    w.spec.transactions_per_day = 240'000.0;
    w.spec.duration = 3 * sim::kHour;
  } else if (name == "forecast_detail") {
    // grid_day's queues, ranked from full snapshots over a wider
    // candidate set: the GIS reply cache and client decode do the work.
    w.spec.broker_candidates = 24;
    w.spec.duration = 8 * sim::kHour;
    w.detail_ranking = true;
  } else {
    return false;
  }
  if (small) {
    // Smoke-test size: same shape, about a hundredth of the work.
    w.spec.resources = 96;
    w.spec.duration = 2 * sim::kHour;
    w.spec.background_jobs_per_day *= 0.125;
    w.spec.transactions_per_day *= 0.1;
    w.spec.agents = 2;
    w.spec.broker_candidates = w.spec.broker_candidates * 2 / 3;
  }
  return true;
}

// ---- host-time spans ---------------------------------------------------------

enum Layer : std::size_t {
  kSchedSubmit,
  kInfoSnapshot,
  kInfoSummary,
  kInfoVersion,
  kInfoSelect,
  kCoreIssue,
  kCoreDestroy,
  kTraceSample,
  kLayerCount,
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "sched.submit_s", "info.snapshot_s", "info.summary_s", "info.version_s",
    "info.select_s",  "core.issue_s",    "core.destroy_s", "trace.sample_s",
};

/// Self time per layer: a span nested inside another is subtracted from its
/// parent, so the totals add up to the time spent inside outermost spans.
struct SpanTotals {
  bool on = false;
  std::array<double, kLayerCount> self_s{};
  class Span* top = nullptr;
};
SpanTotals g_spans;

class Span {
 public:
  explicit Span(Layer layer) : layer_(layer), on_(g_spans.on) {
    if (!on_) return;
    parent_ = g_spans.top;
    g_spans.top = this;
    start_ = Clock::now();
  }
  ~Span() {
    if (!on_) return;
    const double d = seconds_between(start_, Clock::now());
    g_spans.self_s[layer_] += d - child_s_;
    if (parent_ != nullptr) parent_->child_s_ += d;
    g_spans.top = parent_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
  bool on_;
  Span* parent_ = nullptr;
  double child_s_ = 0.0;
  Clock::time_point start_;
};

/// Forwarding scheduler the traced run registers with the information
/// service in place of each host's scheduler: times the three calls the
/// service makes and counts the queued-job records each snapshot copies.
class TimedScheduler final : public sched::LocalScheduler {
 public:
  TimedScheduler(sched::LocalScheduler& inner, std::uint64_t& jobs_copied)
      : inner_(&inner), jobs_copied_(&jobs_copied) {}

  util::Status submit(const sched::JobDescriptor& job, StartFn on_start,
                      EndFn on_end) override {
    return inner_->submit(job, std::move(on_start), std::move(on_end));
  }
  void complete(sched::JobId id) override { inner_->complete(id); }
  bool cancel(sched::JobId id) override { return inner_->cancel(id); }
  std::int32_t total_processors() const override {
    return inner_->total_processors();
  }
  std::int32_t busy_processors() const override {
    return inner_->busy_processors();
  }
  std::size_t queue_length() const override { return inner_->queue_length(); }
  sched::QueueSnapshot snapshot() const override {
    Span span(kInfoSnapshot);
    sched::QueueSnapshot snap = inner_->snapshot();
    *jobs_copied_ += snap.queued.size();
    return snap;
  }
  sched::QueueSummary summary() const override {
    Span span(kInfoSummary);
    return inner_->summary();
  }
  std::uint64_t version() const override {
    Span span(kInfoVersion);
    return inner_->version();
  }
  std::string policy() const override { return inner_->policy(); }

 private:
  sched::LocalScheduler* inner_;
  std::uint64_t* jobs_copied_;
};

// ---- simulated-time samples --------------------------------------------------

/// Nearest-rank quantile in seconds; 0 for an empty sample.
double quantile_s(std::vector<sim::Time> xs, double q) {
  if (xs.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(xs.size()));
  if (rank >= xs.size()) rank = xs.size() - 1;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank),
                   xs.end());
  return sim::to_seconds(xs[rank]);
}

// ---- abort causes ------------------------------------------------------------

constexpr std::size_t kCodes = 10;  // util::ErrorCode values
constexpr std::array<const char*, 3> kCategories = {"required", "interactive",
                                                    "optional"};
constexpr std::array<const char*, 3> kPhases = {"pre_commit", "post_commit",
                                                "post_release"};

std::size_t category_index(rsl::SubjobStartType t) {
  switch (t) {
    case rsl::SubjobStartType::kRequired:
      return 0;
    case rsl::SubjobStartType::kInteractive:
      return 1;
    case rsl::SubjobStartType::kOptional:
      return 2;
  }
  return 0;
}

struct Txn {
  sim::Time arrived = 0;
  std::uint8_t selects = 0;
  std::uint8_t releases = 0;
  std::uint8_t terminals = 0;
  bool committed = false;
  bool has_cause = false;
  std::uint8_t cause_code = 0;
  std::uint8_t cause_category = 0;
  std::uint8_t cause_phase = 0;
};

struct Sample {
  double sim_h = 0;
  double wall_s = 0;
  double rss_mb = 0;
  std::uint64_t pending = 0;
  std::uint64_t queued = 0;
  std::uint64_t nodes = 0;
  std::uint64_t live_requests = 0;
};

// ---- the world ---------------------------------------------------------------

class World {
 public:
  World(const Workload& w, bool traced);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs the workload's duration; traced runs advance in kSamples slices.
  void run();
  void print_json(const char* mode, double setup_s, double setup_cpu_s);

 private:
  struct Agent {
    std::unique_ptr<core::Coallocator> coallocator;
    std::unique_ptr<info::GisClient> gis;
    std::unique_ptr<info::ResourceBroker> broker;
  };

  void schedule_background_arrival();
  void schedule_transaction_arrival();
  void submit_background_job();
  void launch_transaction();
  void on_selected(std::size_t t, core::Coallocator* mech, std::int32_t count,
                   bool atomic,
                   util::Result<std::vector<info::ResourceBroker::Placement>>
                       result);
  bool accept_arrival(sim::Rng& rng, sim::Time now) const;
  void mix(std::uint64_t value) {
    fingerprint_ = (fingerprint_ ^ value) * 0x100000001b3ULL;
  }
  void violation(const char* what) {
    if (violations_.size() < 20) violations_.emplace_back(what);
    ++violation_count_;
  }
  void sample(Clock::time_point t0);

  Workload w_;
  bool traced_;
  testbed::Grid grid_;
  std::vector<testbed::Host*> hosts_;
  std::uint64_t jobs_copied_ = 0;
  std::vector<std::unique_ptr<TimedScheduler>> wrappers_;
  std::unique_ptr<sched::LoadInformationService> service_;
  std::unique_ptr<info::GisServer> gis_server_;
  app::BarrierStats barrier_stats_;
  sim::Rng arrivals_rng_;
  sim::Rng background_rng_;
  std::uint64_t next_background_id_ = 1ULL << 32;
  sched::AggregateWorkPredictor predictor_;
  std::vector<Agent> agents_;
  sim::Rng txn_rng_;
  std::uint64_t txn_seq_ = 0;

  // Simulated outputs.
  std::uint64_t fingerprint_ = 0;
  std::uint64_t bg_submitted_ = 0;
  std::uint64_t bg_rejected_ = 0;
  std::uint64_t bg_completed_ = 0;
  std::uint64_t subjobs_requested_ = 0;
  std::uint64_t placed_ = 0;
  std::uint64_t select_failed_ = 0;
  std::uint64_t released_ = 0;
  std::uint64_t done_ = 0;
  std::uint64_t aborted_ = 0;
  std::vector<Txn> txns_;
  std::vector<sim::Time> release_latency_;
  std::vector<sim::Time> select_latency_;
  std::vector<sim::Time> bg_wait_;
  std::array<std::uint64_t, kCodes * 3 * 3> abort_causes_{};
  std::vector<std::string> violations_;
  std::uint64_t violation_count_ = 0;

  // Host-side observations.
  double run_wall_s_ = 0;
  double run_cpu_s_ = 0;
  std::vector<Sample> samples_;
};

World::World(const Workload& w, bool traced)
    : w_(w),
      traced_(traced),
      grid_(testbed::CostModel::fast(), w.spec.seed, 1),
      arrivals_rng_(w.spec.seed ^ 0xa771ULL),
      background_rng_(w.spec.seed ^ 0xb4c6ULL),
      predictor_(w.spec.background_mean_runtime),
      txn_rng_(w.spec.seed ^ 0x7a17ULL) {
  const testbed::ScaleSpec& spec = w_.spec;
  sim::Rng shape_rng(w_.pool_seed ^ 0x5a9eULL);
  static constexpr std::int32_t kSizes[] = {16, 32, 64, 128, 256};
  hosts_.reserve(static_cast<std::size_t>(spec.resources));
  for (int i = 0; i < spec.resources; ++i) {
    testbed::HostSpec hs;
    std::string n = std::to_string(i);
    hs.name = "rm" + std::string(4 - std::min<std::size_t>(4, n.size()), '0') + n;
    hs.processors = kSizes[shape_rng.uniform_int(0, 4)];
    const std::int64_t policy = shape_rng.uniform_int(0, 9);
    hs.scheduler = policy < 7   ? testbed::SchedulerKind::kBackfill
                   : policy < 9 ? testbed::SchedulerKind::kFcfs
                                : testbed::SchedulerKind::kFork;
    hs.cost_scale = shape_rng.uniform(0.5, 2.0);
    testbed::Host& h = grid_.add_host(hs);
    if (auto* batch = h.batch_scheduler()) batch->set_history_capacity(0);
    hosts_.push_back(&h);
  }

  app::StartupProfile profile;
  profile.init_delay = 50 * sim::kMillisecond;
  profile.init_jitter = 100 * sim::kMillisecond;
  profile.run_time = 2 * sim::kMinute;
  profile.failure_probability = 0.02;
  profile.mode_on_chance = app::FailureMode::kCrashBeforeBarrier;
  profile.failure_per_job = true;

  service_ = std::make_unique<sched::LoadInformationService>(
      grid_.engine(), spec.publish_interval);
  std::vector<std::string> contacts;
  contacts.reserve(hosts_.size());
  for (testbed::Host* h : hosts_) {
    const sched::LocalScheduler* registered = &h->scheduler();
    if (traced_) {
      wrappers_.push_back(
          std::make_unique<TimedScheduler>(h->scheduler(), jobs_copied_));
      registered = wrappers_.back().get();
    }
    service_->register_resource(h->name(), registered);
    contacts.push_back(h->name());
  }
  gis_server_ = std::make_unique<info::GisServer>(grid_.network(), *service_,
                                                  1 * sim::kMillisecond);
  gis_server_->set_contacts(std::move(contacts));
  gis_server_->set_payload_cache(spec.gis_payload_cache);
  app::install_app(grid_.executables(), "scale_app", profile, &barrier_stats_,
                   spec.seed ^ 0xab91ULL);

  core::RequestConfig config;
  config.rpc_timeout = 15 * sim::kSecond;
  config.startup_timeout = 1 * sim::kHour;
  agents_.reserve(static_cast<std::size_t>(spec.agents));
  for (int i = 0; i < spec.agents; ++i) {
    Agent agent;
    agent.coallocator = grid_.make_coallocator(
        "agent" + std::to_string(i), "/O=Grid/CN=agent" + std::to_string(i),
        config);
    agent.gis = std::make_unique<info::GisClient>(
        agent.coallocator->endpoint(), gis_server_->contact());
    agent.broker =
        std::make_unique<info::ResourceBroker>(*agent.gis, predictor_);
    agents_.push_back(std::move(agent));
  }
}

bool World::accept_arrival(sim::Rng& rng, sim::Time now) const {
  constexpr double kPi = 3.14159265358979323846;
  const double phase = 2.0 * kPi *
                       static_cast<double>(now % testbed::kSimDay) /
                       static_cast<double>(testbed::kSimDay);
  const double relative = 1.0 + w_.spec.diurnal_amplitude * std::sin(phase);
  const double peak = 1.0 + w_.spec.diurnal_amplitude;
  return rng.uniform(0.0, peak) < relative;
}

void World::schedule_background_arrival() {
  if (w_.spec.background_jobs_per_day <= 0.0) return;
  const double peak_per_day =
      w_.spec.background_jobs_per_day * (1.0 + w_.spec.diurnal_amplitude);
  const sim::Time mean_gap = std::max<sim::Time>(
      1, static_cast<sim::Time>(static_cast<double>(testbed::kSimDay) /
                                peak_per_day));
  grid_.engine().schedule_after(
      arrivals_rng_.exponential_time(mean_gap), [this] {
        if (accept_arrival(arrivals_rng_, grid_.engine().now())) {
          submit_background_job();
        }
        schedule_background_arrival();
      });
}

void World::submit_background_job() {
  testbed::Host* host = hosts_[static_cast<std::size_t>(
      background_rng_.uniform_int(0,
                                  static_cast<std::int64_t>(hosts_.size()) - 1))];
  sched::JobDescriptor desc;
  desc.id = next_background_id_++;
  desc.count = static_cast<std::int32_t>(background_rng_.uniform_int(
      1, std::min(w_.spec.background_max_count,
                  host->scheduler().total_processors())));
  desc.runtime = std::max<sim::Time>(
      sim::kMillisecond,
      background_rng_.exponential_time(w_.spec.background_mean_runtime));
  desc.estimated_runtime = static_cast<sim::Time>(
      static_cast<double>(desc.runtime) * background_rng_.uniform(1.0, 2.0));
  const sim::Time submitted = grid_.engine().now();
  util::Status status;
  {
    Span span(kSchedSubmit);
    status = host->scheduler().submit(
        desc,
        [this, submitted](sched::JobId) {
          bg_wait_.push_back(grid_.engine().now() - submitted);
        },
        [this](sched::JobId id, sched::EndReason reason) {
          if (reason == sched::EndReason::kCompleted) {
            ++bg_completed_;
            mix(id);
          }
        });
  }
  if (status.is_ok()) {
    ++bg_submitted_;
  } else {
    ++bg_rejected_;
  }
}

void World::schedule_transaction_arrival() {
  if (w_.spec.transactions_per_day <= 0.0) return;
  const double peak_per_day =
      w_.spec.transactions_per_day * (1.0 + w_.spec.diurnal_amplitude);
  const sim::Time mean_gap = std::max<sim::Time>(
      1, static_cast<sim::Time>(static_cast<double>(testbed::kSimDay) /
                                peak_per_day));
  grid_.engine().schedule_after(
      arrivals_rng_.exponential_time(mean_gap), [this] {
        if (accept_arrival(arrivals_rng_, grid_.engine().now())) {
          launch_transaction();
        }
        schedule_transaction_arrival();
      });
}

void World::launch_transaction() {
  const std::size_t t = txns_.size();
  txns_.emplace_back();
  txns_[t].arrived = grid_.engine().now();
  Agent& agent = agents_[txn_seq_++ % agents_.size()];
  const int subjobs = static_cast<int>(
      txn_rng_.uniform_int(w_.spec.min_subjobs, w_.spec.max_subjobs));
  const std::int32_t count = static_cast<std::int32_t>(
      txn_rng_.uniform_int(w_.spec.min_count, w_.spec.max_count));
  const bool atomic = txn_rng_.uniform(0.0, 1.0) < w_.spec.atomic_fraction;

  std::vector<std::string> candidates;
  candidates.reserve(w_.spec.broker_candidates);
  std::vector<int> picked;
  for (std::size_t c = 0; c < w_.spec.broker_candidates; ++c) {
    int index = 0;
    for (int attempt = 0; attempt < 4; ++attempt) {
      index = static_cast<int>(txn_rng_.uniform_int(0, w_.spec.resources - 1));
      if (std::find(picked.begin(), picked.end(), index) == picked.end())
        break;
    }
    picked.push_back(index);
    candidates.push_back(hosts_[static_cast<std::size_t>(index)]->name());
  }

  core::Coallocator* mech = agent.coallocator.get();
  auto done = [this, t, mech, count, atomic](
                  util::Result<std::vector<info::ResourceBroker::Placement>>
                      result) {
    on_selected(t, mech, count, atomic, std::move(result));
  };
  Span span(kInfoSelect);
  if (w_.detail_ranking) {
    agent.broker->select(std::move(candidates),
                         static_cast<std::size_t>(subjobs), count,
                         kSelectTimeout, std::move(done));
  } else {
    agent.broker->select_by_summary(std::move(candidates),
                                    static_cast<std::size_t>(subjobs), count,
                                    kSelectTimeout, std::move(done));
  }
}

void World::on_selected(
    std::size_t t, core::Coallocator* mech, std::int32_t count, bool atomic,
    util::Result<std::vector<info::ResourceBroker::Placement>> result) {
  if (++txns_[t].selects > 1) violation("broker answered a transaction twice");
  select_latency_.push_back(grid_.engine().now() - txns_[t].arrived);
  if (!result.is_ok()) {
    ++select_failed_;
    mix(select_failed_);
    return;
  }
  auto id_holder = std::make_shared<core::RequestId>(0);
  core::RequestCallbacks callbacks;
  callbacks.on_released = [this, t](const core::RuntimeConfig&) {
    Txn& txn = txns_[t];
    if (txn.terminals > 0) violation("barrier released after terminal");
    if (++txn.releases > 1) violation("barrier released twice");
    ++released_;
    release_latency_.push_back(grid_.engine().now() - txn.arrived);
  };
  callbacks.on_subjob = [this, t, mech, id_holder](
                            core::SubjobHandle handle, core::SubjobState state,
                            const util::Status& why) {
    Txn& txn = txns_[t];
    if (state != core::SubjobState::kFailed || txn.has_cause) return;
    // The first subjob failure is the cause; abort() then fails the rest
    // with kAborted.
    const core::CoallocationRequest* req = mech->find_request(*id_holder);
    auto brief = req != nullptr ? req->subjob_brief(handle)
                                : util::Result<core::CoallocationRequest::
                                                   SubjobBrief>(
                                      util::ErrorCode::kNotFound, "gone");
    txn.has_cause = true;
    txn.cause_code = static_cast<std::uint8_t>(why.code());
    txn.cause_category = static_cast<std::uint8_t>(
        brief.is_ok() ? category_index(brief.value().start_type) : 0);
    txn.cause_phase = static_cast<std::uint8_t>(
        !txn.committed ? 0 : txn.releases == 0 ? 1 : 2);
  };
  callbacks.on_terminal = [this, t, mech, id_holder](const util::Status& st) {
    Txn& txn = txns_[t];
    if (++txn.terminals > 1) violation("second terminal callback");
    if (st.is_ok()) {
      ++done_;
      if (txn.releases == 0) violation("transaction done without release");
    } else {
      ++aborted_;
      if (txn.has_cause) {
        const std::size_t code = std::min<std::size_t>(txn.cause_code, kCodes - 1);
        ++abort_causes_[(code * 3 + txn.cause_category) * 3 + txn.cause_phase];
      } else {
        violation("abort with no failed subjob");
      }
    }
    mix(static_cast<std::uint64_t>(grid_.engine().now()) ^
        (st.is_ok() ? 0x90ULL : 0xbadULL));
    const core::RequestId id = *id_holder;
    grid_.engine().schedule_after(0, [mech, id] {
      Span span(kCoreDestroy);
      mech->destroy_request(id);
    });
  };
  Span span(kCoreIssue);
  core::CoallocationRequest* req = mech->create_request(std::move(callbacks));
  *id_holder = req->id();
  const auto requests = info::ResourceBroker::build_requests(
      result.value(), count, "scale_app",
      atomic ? rsl::SubjobStartType::kRequired
             : rsl::SubjobStartType::kInteractive);
  bool first = true;
  for (rsl::JobRequest jr : requests) {
    if (!atomic && first) jr.start_type = rsl::SubjobStartType::kRequired;
    first = false;
    req->add_subjob(std::move(jr));
    ++subjobs_requested_;
  }
  ++placed_;
  req->start();
  req->commit();
  txns_[t].committed = true;
}

void World::sample(Clock::time_point t0) {
  Span span(kTraceSample);
  Sample s;
  s.sim_h = sim::to_seconds(grid_.engine().now()) / 3600.0;
  s.wall_s = seconds_between(t0, Clock::now());
  s.rss_mb = current_rss_mb();
  s.pending = grid_.engine().pending();
  for (testbed::Host* h : hosts_) s.queued += h->scheduler().queue_length();
  s.nodes = grid_.network().node_count();
  for (const Agent& a : agents_) s.live_requests += a.coallocator->request_count();
  samples_.push_back(s);
}

void World::run() {
  service_->start();
  schedule_background_arrival();
  schedule_transaction_arrival();
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  if (!traced_) {
    grid_.run_until(w_.spec.duration);
  } else {
    g_spans.on = true;
    const sim::Time step = w_.spec.duration / kSamples;
    for (int i = 1; i <= kSamples; ++i) {
      grid_.run_until(i == kSamples ? w_.spec.duration : step * i);
      sample(t0);
    }
    g_spans.on = false;
  }
  run_wall_s_ = seconds_between(t0, Clock::now());
  run_cpu_s_ = cpu_seconds() - cpu0;
  // Every candidate query times out by the deadline, so only transactions
  // that arrived in the last moments may still wait for their broker.
  for (const Txn& txn : txns_) {
    if (txn.selects == 0 &&
        grid_.engine().now() - txn.arrived > 2 * kSelectTimeout) {
      violation("broker did not answer within its deadline");
    }
  }
}

// ---- output ------------------------------------------------------------------

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    raw(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    raw(key, "\"" + v + "\"");
  }
  void raw(const std::string& key, const std::string& v) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + key + "\": " + v;
  }
  std::string done() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

void World::print_json(const char* mode, double setup_s, double setup_cpu_s) {
  const double sim_days = sim::to_seconds(grid_.engine().now()) /
                          sim::to_seconds(testbed::kSimDay);
  const std::uint64_t attempted = txns_.size();
  std::uint64_t selecting = 0;
  for (const Txn& txn : txns_) selecting += txn.selects == 0 ? 1 : 0;

  JsonObject sim;
  sim.num("simulated_days", sim_days);
  sim.count("events_executed", grid_.engine().executed());
  sim.count("background_submitted", bg_submitted_);
  sim.count("background_rejected", bg_rejected_);
  sim.count("background_completed", bg_completed_);
  sim.count("background_started", bg_wait_.size());
  sim.count("txn_attempted", attempted);
  sim.count("txn_placed", placed_);
  sim.count("txn_select_failed", select_failed_);
  sim.count("txn_selecting", selecting);
  sim.count("txn_released", released_);
  sim.count("txn_done", done_);
  sim.count("txn_aborted", aborted_);
  sim.count("txn_in_flight", placed_ - done_ - aborted_);
  sim.count("subjobs_requested", subjobs_requested_);
  sim.count("gis_queries_served", gis_server_->queries_served());
  sim.count("publish_rounds", service_->stats().publish_rounds);
  sim.count("snapshots_refreshed", service_->stats().snapshots_refreshed);
  sim.count("snapshots_skipped", service_->stats().snapshots_skipped);
  {
    // Every sample, sorted: run.py pools them over seeds for p50/p99.
    std::sort(release_latency_.begin(), release_latency_.end());
    std::string list = "[";
    for (std::size_t i = 0; i < release_latency_.size(); ++i) {
      if (i > 0) list += ",";
      list += std::to_string(release_latency_[i]);
    }
    sim.raw("txn_release_latencies_ns", list + "]");
  }
  {
    double total = 0;
    for (sim::Time t : bg_wait_) total += sim::to_seconds(t);
    sim.num("bg_wait_mean_sim_s",
            bg_wait_.empty() ? 0.0 : total / static_cast<double>(bg_wait_.size()));
  }
  sim.num("bg_wait_p99_sim_s", quantile_s(bg_wait_, 0.99));
  sim.num("select_p50_sim_s", quantile_s(select_latency_, 0.50));
  {
    std::vector<sim::Time> waits;
    waits.reserve(barrier_stats_.records.size());
    for (const app::BarrierRecord& r : barrier_stats_.records) {
      if (r.wait() >= 0) waits.push_back(r.wait());
    }
    sim.num("barrier_wait_p50_sim_s", quantile_s(std::move(waits), 0.50));
  }
  sim.count("barrier_checkins_ok",
            static_cast<std::uint64_t>(barrier_stats_.checkins_ok));
  sim.count("barrier_checkins_failed",
            static_cast<std::uint64_t>(barrier_stats_.checkins_failed));
  const net::NetworkStats& ns = grid_.network().stats();
  sim.count("net_messages", ns.sent);
  sim.count("net_bytes", ns.bytes_sent);
  sim.count("net_dropped",
            ns.dropped_down + ns.dropped_partition + ns.dropped_random);
  sim.count("net_rpc_retries", ns.rpc_retries);
  sim.count("net_payloads_fresh", ns.payloads_fresh);
  sim.count("net_payloads_recycled", ns.payloads_recycled);
  sim.count("gram_nis_lookups", grid_.nis().lookups_served());
  sim.count("gis_cache_hits", gis_server_->cache_stats().hits);
  sim.count("gis_cache_misses", gis_server_->cache_stats().misses);
  sim.count("pending_events_end", grid_.engine().pending());
  std::uint64_t queued = 0;
  for (testbed::Host* h : hosts_) queued += h->scheduler().queue_length();
  sim.count("queued_jobs_end", queued);
  char fp[32];
  std::snprintf(fp, sizeof fp, "0x%016llx",
                static_cast<unsigned long long>(fingerprint_));
  sim.str("fingerprint", fp);

  JsonObject aborts;
  for (std::size_t c = 0; c < kCodes; ++c) {
    for (std::size_t k = 0; k < kCategories.size(); ++k) {
      for (std::size_t p = 0; p < kPhases.size(); ++p) {
        const std::uint64_t n = abort_causes_[(c * 3 + k) * 3 + p];
        if (n == 0) continue;
        aborts.count("core.abort." +
                         util::to_string(static_cast<util::ErrorCode>(c)) +
                         "." + kCategories[k] + "." + kPhases[p],
                     n);
      }
    }
  }
  sim.raw("aborts", aborts.done());

  JsonObject out;
  out.str("mode", mode);
  out.str("workload", w_.name);
  out.count("seed", w_.spec.seed);
  out.count("resources", static_cast<std::uint64_t>(w_.spec.resources));
  out.num("setup_s", setup_s);
  out.num("setup_cpu_s", setup_cpu_s);
  out.num("run_wall_s", run_wall_s_);
  out.num("run_cpu_s", run_cpu_s_);
  out.num("peak_rss_mb", peak_rss_mb());
  out.raw("sim", sim.done());

  std::string vs = "[";
  for (std::size_t i = 0; i < violations_.size(); ++i) {
    vs += (i ? ", \"" : "\"") + violations_[i] + "\"";
  }
  out.raw("violations", vs + "]");
  out.count("violation_count", violation_count_);

  if (traced_) {
    JsonObject layers;
    double timed = 0;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      layers.num(kLayerNames[l], g_spans.self_s[l]);
      timed += g_spans.self_s[l];
    }
    layers.num("timed_s", timed);
    layers.count("info.snapshot_jobs_copied", jobs_copied_);
    out.raw("layers", layers.done());
    std::string hs = "[";
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      const Sample& s = samples_[i];
      JsonObject o;
      o.num("sim_h", s.sim_h);
      o.num("wall_s", s.wall_s);
      o.num("rss_mb", s.rss_mb);
      o.count("pending", s.pending);
      o.count("queued", s.queued);
      o.count("nodes", s.nodes);
      o.count("live_requests", s.live_requests);
      hs += (i ? ", " : "") + o.done();
    }
    out.raw("samples", hs + "]");
  }
  std::printf("%s\n", out.done().c_str());
}

// ---- reference: ScaleScenario itself -----------------------------------------

void print_reference(const Workload& w) {
  testbed::ScaleScenario scenario(w.spec);
  const testbed::ScaleMetrics m = scenario.run();
  JsonObject sim;
  sim.num("simulated_days", sim::to_seconds(m.simulated) /
                                sim::to_seconds(testbed::kSimDay));
  sim.count("events_executed", m.events_executed);
  sim.count("background_submitted", m.background_submitted);
  sim.count("background_rejected", m.background_rejected);
  sim.count("background_completed", m.background_completed);
  sim.count("txn_attempted", m.txn_attempted);
  sim.count("txn_placed", m.txn_placed);
  sim.count("txn_select_failed", m.txn_select_failed);
  sim.count("txn_released", m.txn_released);
  sim.count("txn_done", m.txn_done);
  sim.count("txn_aborted", m.txn_aborted);
  sim.count("subjobs_requested", m.subjobs_requested);
  sim.count("gis_queries_served", m.gis_queries_served);
  sim.count("publish_rounds", m.info.publish_rounds);
  sim.count("snapshots_refreshed", m.info.snapshots_refreshed);
  sim.count("snapshots_skipped", m.info.snapshots_skipped);
  char fp[32];
  std::snprintf(fp, sizeof fp, "0x%016llx",
                static_cast<unsigned long long>(m.fingerprint));
  sim.str("fingerprint", fp);
  JsonObject out;
  out.str("mode", "reference");
  out.str("workload", w.name);
  out.count("seed", w.spec.seed);
  out.raw("sim", sim.done());
  std::printf("%s\n", out.done().c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: gridbench --workload NAME --seed N "
               "--mode run|traced|reference [--small] [--pool-seed N]\n"
               "       gridbench --mode probe\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string mode = "run";
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool small = false;
  const char* pool_seed = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 0);
      have_seed = true;
    } else if (a == "--mode" && has_value) {
      mode = argv[++i];
    } else if (a == "--pool-seed" && has_value) {
      pool_seed = argv[++i];
    } else if (a == "--small") {
      small = true;
    } else {
      return usage();
    }
  }
  if (mode == "probe") {
    std::printf("{\"mode\": \"probe\", \"probe_cpu_s\": %.9g}\n",
                probe_cpu_s());
    return 0;
  }
  Workload w;
  if (!have_seed || !make_workload(workload, seed, small, w)) return usage();
  if (pool_seed != nullptr) w.pool_seed = std::strtoull(pool_seed, nullptr, 0);

  if (mode == "reference") {
    print_reference(w);
    return 0;
  }
  if (mode != "run" && mode != "traced") return usage();
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  World world(w, mode == "traced");
  const double setup_s = seconds_between(t0, Clock::now());
  const double setup_cpu_s = cpu_seconds() - cpu0;
  world.run();
  world.print_json(mode.c_str(), setup_s, setup_cpu_s);
  return 0;
}
