#include "testbed/scale.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace grid::testbed {
namespace {

// Background job ids must never collide with the gatekeepers' GRAM job
// ids, which share the same local scheduler id space and carry their
// gatekeeper's address in the high half (gram::make_job_id).  Background
// ids carry 1 there: the NIS server's address (the grid's first node),
// never a gatekeeper's.
constexpr std::uint64_t kBackgroundJobBase = 1ULL << 32;

constexpr double kPi = 3.14159265358979323846;

std::string host_name(int index) {
  std::string n = std::to_string(index);
  return "rm" + std::string(4 - std::min<std::size_t>(4, n.size()), '0') + n;
}

}  // namespace

ScaleSpec ScaleSpec::quick() {
  ScaleSpec s;
  s.resources = 96;
  s.duration = 2 * sim::kHour;
  s.background_jobs_per_day = 120'000.0;  // ~10k jobs over the 2h window
  s.transactions_per_day = 2'400.0;       // ~200 transactions
  s.agents = 2;
  s.broker_candidates = 8;
  return s;
}

ScaleScenario::ScaleScenario(ScaleSpec spec)
    : spec_(spec),
      grid_(CostModel::fast(), spec.seed),
      predictor_(spec.background_mean_runtime),
      arrivals_rng_(spec.seed ^ 0xa771ULL),
      background_rng_(spec.seed ^ 0xb4c6ULL),
      txn_rng_(spec.seed ^ 0x7a17ULL),
      next_background_id_(kBackgroundJobBase) {
  // Heterogeneous resource pool: mixed sizes, speeds, and policies.  The
  // draw order is fixed, so the pool is a pure function of the seed.
  sim::Rng shape_rng(spec_.seed ^ 0x5a9eULL);
  static constexpr std::int32_t kSizes[] = {16, 32, 64, 128, 256};
  hosts_.reserve(static_cast<std::size_t>(spec_.resources));
  for (int i = 0; i < spec_.resources; ++i) {
    HostSpec hs;
    hs.name = host_name(i);
    hs.processors = kSizes[shape_rng.uniform_int(0, 4)];
    const std::int64_t policy = shape_rng.uniform_int(0, 9);
    hs.scheduler = policy < 7   ? SchedulerKind::kBackfill
                   : policy < 9 ? SchedulerKind::kFcfs
                                : SchedulerKind::kFork;
    hs.cost_scale = shape_rng.uniform(0.5, 2.0);
    hosts_.push_back(&grid_.add_host(hs));
  }

  app::StartupProfile profile;
  profile.init_delay = 50 * sim::kMillisecond;
  profile.init_jitter = 100 * sim::kMillisecond;
  profile.run_time = 2 * sim::kMinute;
  profile.failure_probability = 0.02;  // per-subjob stochastic failures
  profile.mode_on_chance = app::FailureMode::kCrashBeforeBarrier;
  profile.failure_per_job = true;

  service_ = std::make_unique<sched::LoadInformationService>(
      grid_.engine(), spec_.publish_interval);
  std::vector<std::string> contacts;
  contacts.reserve(hosts_.size());
  for (Host* h : hosts_) {
    service_->register_resource(h->name(), &h->scheduler());
    contacts.push_back(h->name());
  }
  gis_server_ = std::make_unique<info::GisServer>(
      grid_.network(), *service_, 1 * sim::kMillisecond);
  gis_server_->set_contacts(std::move(contacts));
  gis_server_->set_payload_cache(spec_.gis_payload_cache);
  // Nothing reads per-process barrier waits here, so none are recorded.
  app::install_app(grid_.executables(), "scale_app", profile, nullptr,
                   spec_.seed ^ 0xab91ULL);

  core::RequestConfig config;
  config.rpc_timeout = 15 * sim::kSecond;
  config.startup_timeout = 1 * sim::kHour;  // queued subjobs may wait
  agents_.reserve(static_cast<std::size_t>(spec_.agents));
  for (int i = 0; i < spec_.agents; ++i) {
    Agent agent;
    agent.coallocator = grid_.make_coallocator(
        "agent" + std::to_string(i),
        "/O=Grid/CN=agent" + std::to_string(i), config);
    agent.gis = std::make_unique<info::GisClient>(
        agent.coallocator->endpoint(), gis_server_->contact());
    agent.broker =
        std::make_unique<info::ResourceBroker>(*agent.gis, predictor_);
    agents_.push_back(std::move(agent));
  }
}

ScaleScenario::~ScaleScenario() = default;

void ScaleScenario::mix(std::uint64_t value) {
  metrics_.fingerprint = (metrics_.fingerprint ^ value) * 0x100000001b3ULL;
}

bool ScaleScenario::accept_arrival(sim::Time now) {
  // Thinning: candidate arrivals are drawn at the peak rate
  // lambda_max = mean * (1 + A) and kept with probability
  // lambda(t) / lambda_max, which yields the diurnal profile exactly.
  const double phase = 2.0 * kPi * static_cast<double>(now % kSimDay) /
                       static_cast<double>(kSimDay);
  const double relative = 1.0 + spec_.diurnal_amplitude * std::sin(phase);
  const double peak = 1.0 + spec_.diurnal_amplitude;
  return arrivals_rng_.uniform(0.0, peak) < relative;
}

void ScaleScenario::schedule_background_arrival() {
  if (spec_.background_jobs_per_day <= 0.0) return;
  const double peak_per_day =
      spec_.background_jobs_per_day * (1.0 + spec_.diurnal_amplitude);
  const sim::Time mean_gap = std::max<sim::Time>(
      1, static_cast<sim::Time>(static_cast<double>(kSimDay) / peak_per_day));
  grid_.engine().schedule_after(
      arrivals_rng_.exponential_time(mean_gap), [this] {
        if (accept_arrival(grid_.engine().now())) submit_background_job();
        schedule_background_arrival();
      });
}

void ScaleScenario::submit_background_job() {
  Host* host = hosts_[static_cast<std::size_t>(background_rng_.uniform_int(
      0, static_cast<std::int64_t>(hosts_.size()) - 1))];
  sched::JobDescriptor desc;
  desc.id = next_background_id_++;
  desc.count = static_cast<std::int32_t>(background_rng_.uniform_int(
      1, std::min(spec_.background_max_count,
                  host->scheduler().total_processors())));
  desc.runtime = std::max<sim::Time>(
      sim::kMillisecond,
      background_rng_.exponential_time(spec_.background_mean_runtime));
  // Users over-estimate; backfill plans with the estimate, not the truth.
  desc.estimated_runtime = static_cast<sim::Time>(
      static_cast<double>(desc.runtime) * background_rng_.uniform(1.0, 2.0));
  const util::Status status = host->scheduler().submit(
      desc, [](sched::JobId) {},
      [this](sched::JobId id, sched::EndReason reason) {
        if (reason == sched::EndReason::kCompleted) {
          ++metrics_.background_completed;
          mix(id);
        }
      });
  if (status.is_ok()) {
    ++metrics_.background_submitted;
  } else {
    ++metrics_.background_rejected;
  }
}

void ScaleScenario::schedule_transaction_arrival() {
  if (spec_.transactions_per_day <= 0.0) return;
  const double peak_per_day =
      spec_.transactions_per_day * (1.0 + spec_.diurnal_amplitude);
  const sim::Time mean_gap = std::max<sim::Time>(
      1, static_cast<sim::Time>(static_cast<double>(kSimDay) / peak_per_day));
  // Draws from the same arrival stream as the background load.
  grid_.engine().schedule_after(
      arrivals_rng_.exponential_time(mean_gap), [this] {
        if (accept_arrival(grid_.engine().now())) launch_transaction();
        schedule_transaction_arrival();
      });
}

void ScaleScenario::launch_transaction() {
  ++metrics_.txn_attempted;
  Agent& agent = agents_[txn_seq_++ % agents_.size()];
  const int subjobs = static_cast<int>(
      txn_rng_.uniform_int(spec_.min_subjobs, spec_.max_subjobs));
  const std::int32_t count = static_cast<std::int32_t>(
      txn_rng_.uniform_int(spec_.min_count, spec_.max_count));
  const bool atomic = txn_rng_.uniform(0.0, 1.0) < spec_.atomic_fraction;

  // Sample a distinct candidate set; a rare duplicate after the bounded
  // retry loop is harmless (the broker queries it twice).
  std::vector<std::string> candidates;
  candidates.reserve(spec_.broker_candidates);
  std::vector<int> picked;
  for (std::size_t c = 0; c < spec_.broker_candidates; ++c) {
    int index = 0;
    for (int attempt = 0; attempt < 4; ++attempt) {
      index = static_cast<int>(txn_rng_.uniform_int(0, spec_.resources - 1));
      if (std::find(picked.begin(), picked.end(), index) == picked.end())
        break;
    }
    picked.push_back(index);
    candidates.push_back(hosts_[static_cast<std::size_t>(index)]->name());
  }

  core::Coallocator* mech = agent.coallocator.get();
  auto on_selected =
      [this, mech, count, atomic](
          util::Result<std::vector<info::ResourceBroker::Placement>> result) {
        if (!result.is_ok()) {
          ++metrics_.txn_select_failed;
          mix(metrics_.txn_select_failed);
          return;
        }
        core::RequestCallbacks callbacks;
        callbacks.on_released = [this](const core::RuntimeConfig&) {
          ++metrics_.txn_released;
        };
        // The id is only known after create_request, so the terminal
        // callback reads it through shared state; destruction is deferred
        // one event because a request must never die inside its own
        // callback.
        auto id_holder = std::make_shared<core::RequestId>(0);
        callbacks.on_terminal = [this, mech,
                                 id_holder](const util::Status& status) {
          if (status.is_ok()) {
            ++metrics_.txn_done;
          } else {
            ++metrics_.txn_aborted;
          }
          mix(static_cast<std::uint64_t>(grid_.engine().now()) ^
              (status.is_ok() ? 0x90ULL : 0xbadULL));
          const core::RequestId id = *id_holder;
          grid_.engine().schedule_after(
              0, [mech, id] { mech->destroy_request(id); });
        };
        core::CoallocationRequest* req = mech->create_request(callbacks);
        *id_holder = req->id();
        // GRAB-style atomic transactions make every subjob required; the
        // DUROC-interactive mix anchors one required subjob and lets the
        // rest fail individually (§3.2 categories).
        const auto requests = info::ResourceBroker::build_requests(
            result.value(), count, "scale_app",
            atomic ? rsl::SubjobStartType::kRequired
                   : rsl::SubjobStartType::kInteractive);
        bool first = true;
        for (rsl::JobRequest jr : requests) {
          if (!atomic && first) jr.start_type = rsl::SubjobStartType::kRequired;
          first = false;
          req->add_subjob(std::move(jr));
          ++metrics_.subjobs_requested;
        }
        ++metrics_.txn_placed;
        req->start();
        req->commit();
      };

  agent.broker->select_by_summary(std::move(candidates),
                                  static_cast<std::size_t>(subjobs), count,
                                  10 * sim::kSecond, std::move(on_selected));
}

ScaleMetrics ScaleScenario::run() {
  if (ran_) return metrics_;
  ran_ = true;
  service_->start();
  schedule_background_arrival();
  schedule_transaction_arrival();
  grid_.run_until(spec_.duration);

  metrics_.simulated = grid_.engine().now();
  metrics_.events_executed = grid_.engine().executed();
  metrics_.info = service_->stats();
  metrics_.gis_queries_served = gis_server_->queries_served();
  metrics_.gis_cache = gis_server_->cache_stats();
  return metrics_;
}

}  // namespace grid::testbed
