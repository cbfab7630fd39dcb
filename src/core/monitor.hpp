// Ensemble monitoring and control (paper §3.4).
//
// "During the program's execution, it is desirable that we be able to
// monitor and control the ensemble as a collective unit."  The mechanism
// layer already signals per-subjob transitions; EnsembleMonitor aggregates
// them into the collective view: global state transitions (released,
// degraded, done, aborted), a live summary of the resource set, and the
// collective kill operation.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/coallocator.hpp"
#include "core/request.hpp"
#include "simkit/annotate.hpp"
#include "simkit/idmap.hpp"

namespace grid::core {

/// Collective state transitions of the ensemble.
enum class GlobalEvent : std::uint8_t {
  kAllPending,   // every live subjob accepted by its local manager
  kAllActive,    // every live subjob's processes are running
  kReleased,     // the barrier released (computation configured & running)
  kDegraded,     // a component failed after release but the ensemble
                 // continues (the [21]-style partial-failure tolerance)
  kDone,         // every live subjob ran to completion
  kAborted,      // the computation was terminated
};

std::string to_string(GlobalEvent e);

class GRID_HOT EnsembleMonitor {
 public:
  // Installed once per watched request at registration time.
  // gridlint: allow(hot-function)
  using EventFn = std::function<void(GlobalEvent)>;

  /// Point-in-time aggregate over the request's subjobs.
  struct Summary {
    std::array<std::size_t, 9> by_state{};  // indexed by SubjobState
    std::size_t live_subjobs = 0;
    std::int32_t live_processes = 0;
    std::int32_t released_processes = 0;
    std::size_t failures = 0;
    RequestState request_state = RequestState::kEditing;

    std::size_t count(SubjobState s) const {
      return by_state[static_cast<std::size_t>(s)];
    }
  };

  EnsembleMonitor() = default;

  /// Wraps user callbacks so the monitor observes every transition; pass
  /// the result to create_request, then bind() the created request.
  RequestCallbacks wrap(RequestCallbacks user);

  void bind(CoallocationRequest* request) { request_ = request; }

  void set_event_handler(EventFn handler) { on_event_ = std::move(handler); }

  Summary summary() const;

  /// Collective control operation (§3.4): kill the whole ensemble.
  void kill() {
    if (request_ != nullptr) request_->kill();
  }

  /// Events observed so far, in order.
  const std::vector<GlobalEvent>& history() const { return history_; }

 private:
  void observe(SubjobHandle handle, SubjobState state,
               const util::Status& why);
  void emit(GlobalEvent event);

  CoallocationRequest* request_ = nullptr;
  RequestCallbacks user_;
  EventFn on_event_;
  std::vector<GlobalEvent> history_;
  bool saw_all_pending_ = false;
  bool saw_all_active_ = false;
};

// ---- heartbeat failure detection -------------------------------------------
//
// §3.4 lists failure modes "ranging from an error report to lack of
// progress".  The lack-of-progress class is the hard one: a crashed or
// partitioned resource manager produces no event at all.  The detector
// turns silence into an explicit verdict by pinging every watched subjob's
// gatekeeper on a fixed beat and escalating consecutive misses
// (healthy -> suspect -> dead); a dead verdict is fed back into the
// mechanism layer as an ordinary subjob failure, so the category semantics
// of §3.2 (required aborts, optional degrades) apply unchanged.

/// Detector opinion of one subjob's resource manager.
enum class SubjobHealth : std::uint8_t {
  kHealthy = 0,
  kSuspect,  // >= misses_to_suspect consecutive beats unanswered
  kDead,     // >= misses_to_dead; verdict delivered, no further beats
};

std::string to_string(SubjobHealth h);

struct HeartbeatConfig {
  /// Beat period.  Each watched subjob's gatekeeper is pinged once per
  /// interval (single-attempt, so the detector — not an RPC retry layer —
  /// does the counting).
  sim::Time interval = 5 * sim::kSecond;
  /// Per-beat reply deadline; an unanswered beat is one miss.
  sim::Time beat_timeout = 2 * sim::kSecond;
  int misses_to_suspect = 1;
  int misses_to_dead = 3;
};

class GRID_HOT HeartbeatDetector {
 public:
  /// Fired on every health transition; for kDead the status carries the
  /// cause that is about to be reported to the request.  Health edges are
  /// rare relative to messages.
  using HealthFn =  // gridlint: allow(hot-function)
      std::function<void(SubjobHandle, SubjobHealth, const util::Status&)>;

  /// Watches the request with the given id.  The detector resolves the id
  /// through `mechanisms` on every beat, so it tolerates the request being
  /// destroyed while it is running (it simply stops).
  HeartbeatDetector(Coallocator& mechanisms, RequestId request,
                    HeartbeatConfig config = {});
  ~HeartbeatDetector();

  HeartbeatDetector(const HeartbeatDetector&) = delete;
  HeartbeatDetector& operator=(const HeartbeatDetector&) = delete;

  /// Begins beating (idempotent).  Subjobs become watchable once their
  /// GRAM job is accepted; a substitution (new gram_job) resets the slot's
  /// miss count.
  void start();
  void stop();
  bool running() const { return running_; }

  void set_health_handler(HealthFn handler) {
    on_health_ = std::move(handler);
  }

  /// kHealthy for slots never watched.
  SubjobHealth health(SubjobHandle handle) const;

  std::uint64_t beats_sent() const { return beats_sent_; }
  std::uint64_t beats_answered() const { return beats_answered_; }
  std::uint64_t beats_missed() const { return beats_missed_; }
  /// Dead verdicts delivered to the request.
  std::uint64_t verdicts() const { return verdicts_; }

  const HeartbeatConfig& config() const { return config_; }

 private:
  struct Watch {
    gram::JobId job = 0;  // incarnation tracking: new job resets the watch
    int misses = 0;
    SubjobHealth health = SubjobHealth::kHealthy;
    bool in_flight = false;  // previous beat still outstanding
  };

  void tick();
  void beat(SubjobHandle handle, net::NodeId gatekeeper, gram::JobId job);
  void transition(SubjobHandle handle, Watch& w, SubjobHealth to,
                  const util::Status& why);

  Coallocator* mech_;
  RequestId request_;
  HeartbeatConfig config_;
  HealthFn on_health_;
  sim::IdSlab<Watch> watches_;
  sim::EventId tick_event_;
  bool running_ = false;
  /// Beat replies and timer lambdas check this before touching `this`, so
  /// destroying the detector with beats in flight is safe.
  std::shared_ptr<bool> alive_;
  std::uint64_t beats_sent_ = 0;
  std::uint64_t beats_answered_ = 0;
  std::uint64_t beats_missed_ = 0;
  std::uint64_t verdicts_ = 0;
};

}  // namespace grid::core
