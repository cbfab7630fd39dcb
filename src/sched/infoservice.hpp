// Grid information service: published queue-state snapshots.
//
// Models the paper §2.2 option of resource managers "publish[ing]
// information about the current queue contents and scheduling policy".
// Snapshots are refreshed on a fixed interval, so queries observe stale
// data — the staleness that reference [14]'s simulation study identifies
// as the limit on forecast-guided co-allocation (see bench/ablate_forecast).
//
// Scale architecture (O(1k) resources, 100k-deep queues):
//   - contacts are interned to dense ContactIds once at registration, so
//     a query by id never hashes a string or allocates an error message
//     (callers resolve() a contact string once);
//   - a publish round copies no queue: it records the aggregate
//     `QueueSummary` and `version()` and sets the scheduler's publication
//     mark (LocalScheduler::mark_published), all O(1) per resource;
//   - a round re-marks only resources whose scheduler `version()` moved
//     since the last round (dirty-flag republish);
//   - per-job detail is rebuilt on the round's first full-snapshot query
//     (LocalScheduler::published_queue) and then shared as an immutable
//     `shared_ptr<const QueueSnapshot>`: a query hands out a reference,
//     never a deep copy of the queued-job vector;
//   - consumers that only rank resources (predictors, brokers) read the
//     summary and never cause the per-job detail to be built at all.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/scheduler.hpp"
#include "simkit/engine.hpp"

namespace grid::sched {

class LoadInformationService {
 public:
  /// Dense interned contact handle; 0 is invalid.  Ids are stable for the
  /// service's lifetime.
  using ContactId = std::uint32_t;

  /// Shared immutable published snapshot.  Holders may keep the reference
  /// across later publish rounds; the service never mutates a snapshot it
  /// has handed out, it swaps in a fresh one.
  using SnapshotRef = std::shared_ptr<const QueueSnapshot>;

  struct Stats {
    std::uint64_t publish_rounds = 0;
    std::uint64_t snapshots_refreshed = 0;  // scheduler version moved
    std::uint64_t snapshots_skipped = 0;    // dirty flag said "unchanged"
    std::uint64_t queries = 0;
    std::uint64_t misses = 0;
  };

  /// Snapshots are refreshed every `publish_interval`, which must be
  /// positive: an interval <= 0 aborts in every build.
  LoadInformationService(sim::Engine& engine, sim::Time publish_interval);
  ~LoadInformationService();

  LoadInformationService(const LoadInformationService&) = delete;
  LoadInformationService& operator=(const LoadInformationService&) = delete;

  /// Registers a resource under its manager contact string and publishes
  /// it.  The scheduler must outlive the service.  Registering a known
  /// contact again swaps in `sched` under the same ContactId.  A scheduler
  /// has one publisher: register it with one service under one contact,
  /// since its publication hooks answer only its latest mark (checked
  /// builds abort on a query for an older one).
  void register_resource(std::string contact, const LocalScheduler* sched);

  /// Begins periodic publication (idempotent).
  void start();
  void stop();

  /// Refreshes all snapshots immediately.
  void publish_now();

  // ---- interned hot path ---------------------------------------------------

  /// Contact string -> dense id; 0 for contacts never registered.  Resolve
  /// once, then query by id.
  ContactId resolve(const std::string& contact) const;

  /// Most recently published snapshot: built on the round's first call,
  /// shared (no copy) after that.  kNotFound for invalid ids.
  util::Result<SnapshotRef> snapshot_ref(ContactId id) const;

  /// Aggregate-only published view — O(1) data regardless of queue depth.
  util::Result<QueueSummary> summary(ContactId id) const;

  /// Version of the published content: moves exactly when a publish round
  /// actually refreshed this resource's snapshot, so consumers can cache
  /// derived artifacts (e.g. encoded reply payloads) keyed on it.
  /// 0 means "don't cache" (unknown id).
  std::uint64_t published_version(ContactId id) const;

  /// Age of the published snapshot (kTimeNever for invalid ids).
  sim::Time staleness(ContactId id) const;

  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    const LocalScheduler* sched = nullptr;
    mutable SnapshotRef snap;  // built on the round's first snapshot_ref()
    QueueSummary summary;
    std::uint64_t sched_version = 0;      // scheduler version at last refresh
    std::uint64_t published_version = 0;  // bumped on every content refresh
    sim::Time published_at = 0;           // last publish round touching this
  };

  void tick();
  void refresh(Entry& e, std::uint64_t version);
  Entry* entry(ContactId id);
  const Entry* entry(ContactId id) const;

  sim::Engine* engine_;
  sim::Time interval_;
  bool running_ = false;
  sim::EventId tick_event_;
  std::vector<Entry> entries_;  // indexed by ContactId - 1
  std::unordered_map<std::string, ContactId> intern_;
  std::uint64_t next_published_version_ = 0;
  mutable Stats stats_;
};

}  // namespace grid::sched
