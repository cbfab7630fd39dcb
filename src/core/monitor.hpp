// Heartbeat failure detection (paper §3.4).
//
// §3.4 lists failure modes "ranging from an error report to lack of
// progress".  The lack-of-progress class is the hard one: a crashed or
// partitioned resource manager produces no event at all.  The detector
// turns silence into an explicit verdict by pinging every watched subjob's
// gatekeeper on a fixed beat and counting consecutive misses; enough of
// them make a dead verdict, which is fed back into the mechanism layer as
// an ordinary subjob failure, so the category semantics of §3.2 (required
// aborts, optional degrades) apply unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/coallocator.hpp"
#include "core/request.hpp"
#include "simkit/annotate.hpp"

namespace grid::core {

struct HeartbeatConfig {
  /// Beat period.  Each watched subjob's gatekeeper is pinged once per
  /// interval (single-attempt, so the detector — not an RPC retry layer —
  /// does the counting).
  sim::Time interval = 5 * sim::kSecond;
  /// Per-beat reply deadline; an unanswered beat is one miss.
  sim::Time beat_timeout = 2 * sim::kSecond;
  /// Consecutive misses that make the dead verdict.
  int misses_to_dead = 3;
};

class GRID_HOT HeartbeatDetector {
 public:
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

  std::uint64_t beats_sent() const { return beats_sent_; }
  std::uint64_t beats_missed() const { return beats_missed_; }
  /// Dead verdicts delivered to the request.
  std::uint64_t verdicts() const { return verdicts_; }

  const HeartbeatConfig& config() const { return config_; }

 private:
  struct Watch {
    gram::JobId job = 0;  // incarnation tracking: new job resets the watch
    int misses = 0;
    bool dead = false;       // verdict delivered, no further beats
    bool in_flight = false;  // previous beat still outstanding
  };

  void tick();
  /// Pings the gatekeeper that `job`'s id names.
  void beat(SubjobHandle handle, gram::JobId job);

  Coallocator* mech_;
  RequestId request_;
  HeartbeatConfig config_;
  std::vector<Watch> watches_;  // subjob handle h at index h - 1
  sim::EventId tick_event_;
  bool running_ = false;
  /// Beat replies and timer lambdas check this before touching `this`, so
  /// destroying the detector with beats in flight is safe.
  std::shared_ptr<bool> alive_;
  std::uint64_t beats_sent_ = 0;
  std::uint64_t beats_missed_ = 0;
  std::uint64_t verdicts_ = 0;
};

}  // namespace grid::core
