#include "sched/infoservice.hpp"

#include "simkit/check.hpp"

namespace grid::sched {

LoadInformationService::LoadInformationService(sim::Engine& engine,
                                               sim::Time publish_interval)
    : engine_(&engine), interval_(publish_interval) {
  if (interval_ <= 0) {
    sim::check_fail(__FILE__, __LINE__,
                    "LoadInformationService needs a positive publish "
                    "interval");
  }
}

LoadInformationService::~LoadInformationService() { stop(); }

void LoadInformationService::register_resource(std::string contact,
                                               const LocalScheduler* sched) {
  GRID_CHECK(sched != nullptr, "register_resource without a scheduler");
  const auto [it, added] = intern_.try_emplace(
      std::move(contact), static_cast<ContactId>(entries_.size() + 1));
  if (added) entries_.emplace_back();
  Entry& e = entries_[it->second - 1];
  e.sched = sched;
  e.published_at = engine_->now();
  refresh(e, sched->version());
}

void LoadInformationService::start() {
  if (running_) return;
  running_ = true;
  tick_event_ = engine_->schedule_after(interval_, [this] { tick(); });
}

void LoadInformationService::stop() {
  if (!running_) return;
  running_ = false;
  engine_->cancel(tick_event_);
}

void LoadInformationService::tick() {
  publish_now();
  if (running_) {
    tick_event_ = engine_->schedule_after(interval_, [this] { tick(); });
  }
}

void LoadInformationService::refresh(Entry& e, std::uint64_t version) {
  e.summary = e.sched->summary();
  e.sched_version = version;
  e.sched->mark_published();
  e.snap.reset();  // rebuilt by the round's first snapshot_ref()
  e.published_version = ++next_published_version_;
  ++stats_.snapshots_refreshed;
}

void LoadInformationService::publish_now() {
  // Entries are visited in registration order; nothing here schedules
  // events or sends messages, so publication cannot leak ordering.
  ++stats_.publish_rounds;
  const sim::Time now = engine_->now();
  for (Entry& e : entries_) {
    e.published_at = now;  // the round ran, even if the content held still
    const std::uint64_t v = e.sched->version();
    if (v != 0 && v == e.sched_version) {
      ++stats_.snapshots_skipped;  // dirty flag clean: the last mark holds
      continue;
    }
    refresh(e, v);
  }
}

LoadInformationService::ContactId LoadInformationService::resolve(
    const std::string& contact) const {
  auto it = intern_.find(contact);
  return it == intern_.end() ? 0 : it->second;
}

LoadInformationService::Entry* LoadInformationService::entry(ContactId id) {
  if (id == 0 || id > entries_.size()) return nullptr;
  return &entries_[id - 1];
}

const LoadInformationService::Entry* LoadInformationService::entry(
    ContactId id) const {
  if (id == 0 || id > entries_.size()) return nullptr;
  return &entries_[id - 1];
}

util::Result<LoadInformationService::SnapshotRef>
LoadInformationService::snapshot_ref(ContactId id) const {
  ++stats_.queries;
  const Entry* e = entry(id);
  if (e == nullptr) {
    ++stats_.misses;
    return util::small_status(util::ErrorCode::kNotFound, "unknown contact");
  }
  if (e->snap == nullptr) {
    // The summary carries the same taken_at and processor counts that a
    // snapshot() at the mark would have.
    auto snap = std::make_shared<QueueSnapshot>();
    snap->taken_at = e->summary.taken_at;
    snap->total_processors = e->summary.total_processors;
    snap->busy_processors = e->summary.busy_processors;
    snap->queued = e->sched->published_queue(e->sched_version);
    e->snap = std::move(snap);
  }
  return e->snap;
}

util::Result<QueueSummary> LoadInformationService::summary(
    ContactId id) const {
  ++stats_.queries;
  const Entry* e = entry(id);
  if (e == nullptr) {
    ++stats_.misses;
    return util::small_status(util::ErrorCode::kNotFound, "unknown contact");
  }
  return e->summary;
}

std::uint64_t LoadInformationService::published_version(ContactId id) const {
  const Entry* e = entry(id);
  if (e == nullptr) return 0;
  return e->published_version;
}

sim::Time LoadInformationService::staleness(ContactId id) const {
  const Entry* e = entry(id);
  if (e == nullptr) return sim::kTimeNever;
  return engine_->now() - e->published_at;
}

}  // namespace grid::sched
