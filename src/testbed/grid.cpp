#include "testbed/grid.hpp"

#include "simkit/check.hpp"

namespace grid::testbed {

CostModel CostModel::fast() {
  CostModel m;
  m.network_latency = 1 * sim::kMillisecond;
  m.gsi.client_sign = 1 * sim::kMillisecond;
  m.gsi.server_verify = 1 * sim::kMillisecond;
  m.gsi.client_verify = 1 * sim::kMillisecond;
  m.gsi.server_issue = 1 * sim::kMillisecond;
  m.nis_service = 1 * sim::kMillisecond;
  m.gatekeeper.misc_processing = 1 * sim::kMillisecond;
  m.gatekeeper.exec_startup = 1 * sim::kMillisecond;
  m.fork_cost_per_process = 10 * sim::kMicrosecond;
  return m;
}

namespace {

sim::Time scale_time(sim::Time t, double s) {
  return static_cast<sim::Time>(static_cast<double>(t) * s);
}

}  // namespace

Host::Host(Grid& grid, const HostSpec& spec) : grid_(&grid), spec_(spec) {
  // cost_scale == 1.0 must leave every figure byte-identical, so the
  // unscaled path passes the grid's cost structs through untouched.
  gsi::CostModel gsi_costs = grid_->costs().gsi;
  gram::GatekeeperCosts gk_costs = grid_->costs().gatekeeper;
  sim::Time fork_cost = grid_->costs().fork_cost_per_process;
  if (spec_.cost_scale != 1.0) {
    const double s = spec_.cost_scale;
    gsi_costs.client_sign = scale_time(gsi_costs.client_sign, s);
    gsi_costs.server_verify = scale_time(gsi_costs.server_verify, s);
    gsi_costs.client_verify = scale_time(gsi_costs.client_verify, s);
    gsi_costs.server_issue = scale_time(gsi_costs.server_issue, s);
    gk_costs.misc_processing = scale_time(gk_costs.misc_processing, s);
    gk_costs.exec_startup = scale_time(gk_costs.exec_startup, s);
    fork_cost = scale_time(fork_cost, s);
  }
  sim::Engine& engine = grid_->engine();
  switch (spec_.scheduler) {
    case SchedulerKind::kFork:
      scheduler_ = std::make_unique<sched::ForkScheduler>(
          engine, fork_cost, spec_.processors);
      break;
    case SchedulerKind::kFcfs:
      scheduler_ = std::make_unique<sched::BatchScheduler>(
          engine, spec_.processors, sched::Backfill::kNone);
      break;
    case SchedulerKind::kBackfill:
      scheduler_ = std::make_unique<sched::BatchScheduler>(
          engine, spec_.processors, sched::Backfill::kEasy);
      break;
    case SchedulerKind::kReservation:
      scheduler_ = std::make_unique<sched::ReservationScheduler>(
          engine, spec_.processors);
      break;
  }
  gatekeeper_ = std::make_unique<gram::Gatekeeper>(
      grid_->network(), spec_.name, *scheduler_, grid_->executables(),
      grid_->ca(), grid_->gridmap(),
      grid_->ca().issue("/O=Grid/CN=host/" + spec_.name,
                        sim::kTimeNever / 2),
      grid_->nis().id(), gsi_costs, gk_costs);
}

sched::BatchScheduler* Host::batch_scheduler() {
  return dynamic_cast<sched::BatchScheduler*>(scheduler_.get());
}

sched::ReservationScheduler* Host::reservation_scheduler() {
  return dynamic_cast<sched::ReservationScheduler*>(scheduler_.get());
}

void Host::crash() {
  grid_->network().set_node_up(gatekeeper_->contact(), false);
}

void Host::restore() {
  grid_->network().set_node_up(gatekeeper_->contact(), true);
}

bool Host::is_up() const {
  return grid_->network().is_up(gatekeeper_->contact());
}

Grid::Grid(CostModel costs, std::uint64_t seed, int shards)
    : costs_(costs),
      network_(engine_),
      ca_("/O=Grid/CN=TestbedCA", seed ^ 0xca5eedULL) {
  if (shards != 1) {
    sim::check_fail(__FILE__, __LINE__,
                    "testbed::Grid supports exactly one engine and network");
  }
  network_.set_drop_seed(seed ^ 0xd70b5eedULL);
  network_.set_latency_model(
      std::make_unique<net::FixedLatency>(costs_.network_latency));
  nis_ = std::make_unique<gram::NisServer>(network_, costs_.nis_service);
}

Grid::~Grid() = default;

Host& Grid::add_host(const HostSpec& spec) {
  auto host = std::make_unique<Host>(*this, spec);
  Host& ref = *host;
  by_name_[spec.name] = host.get();
  hosts_.push_back(std::move(host));
  return ref;
}

Host& Grid::add_host(const std::string& name, std::int32_t processors,
                     SchedulerKind scheduler) {
  return add_host(HostSpec{name, processors, scheduler});
}

Host* Grid::host(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

core::ContactResolver Grid::resolver() {
  return [this](const std::string& contact) -> util::Result<net::NodeId> {
    Host* h = host(contact);
    if (h == nullptr) {
      // Static message: brokers probing a churning testbed hit this miss
      // path per candidate, and an allocating status would put string
      // construction on the selection hot path.
      return util::small_status(util::ErrorCode::kNotFound,
                                "unknown contact");
    }
    return h->contact();
  };
}

gsi::Credential Grid::make_user(const std::string& subject,
                                const std::string& local_user) {
  gridmap_.add(subject, local_user);
  nis_->add_user(local_user, {"grid", "research"});
  return ca_.issue(subject, sim::kTimeNever / 2);
}

std::unique_ptr<core::Coallocator> Grid::make_coallocator(
    const std::string& name, const std::string& subject,
    core::RequestConfig defaults) {
  auto coallocator = std::make_unique<core::Coallocator>(
      network_, name, ca_, make_user(subject, "user-" + name),
      costs_.gsi, defaults);
  coallocator->set_contact_resolver(resolver());
  return coallocator;
}

std::string rsl_subjob(const std::string& contact, std::int32_t count,
                       const std::string& executable,
                       const std::string& start_type,
                       const std::string& label) {
  std::string s = "(&(resourceManagerContact=\"" + contact + "\")" +
                  "(count=" + std::to_string(count) + ")" +
                  "(executable=\"" + executable + "\")" +
                  "(subjobStartType=" + start_type + ")";
  if (!label.empty()) {
    s += "(label=\"" + label + "\")";
  }
  s += ")";
  return s;
}

std::string rsl_multi(const std::vector<std::string>& subjobs) {
  std::string s = "+";
  for (const std::string& sub : subjobs) s += sub;
  return s;
}

}  // namespace grid::testbed
