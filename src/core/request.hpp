// CoallocationRequest: the co-allocation mechanism layer (paper §3).
//
// One instance manages one multi-resource request through the distributed
// two-phase commit of §3.2:
//
//   1. subjob GRAM requests are issued *sequentially* (the property that
//      produces Figure 4's slope) while their remote processing overlaps;
//   2. application processes perform local checks and check in to the
//      barrier with their own success verdict;
//   3. the agent edits the request (add / remove / substitute) until it
//      calls commit(); once committed and every live non-optional subjob
//      has fully checked in, the barrier is released with the final
//      configuration.
//
// Failure semantics by category (§3.2):
//   required     failure or timeout aborts the whole computation, before
//                or after commit;
//   interactive  failure fires the agent callback; before commit the agent
//                may remove/substitute and the request continues — after
//                commit an unrecoverable interactive failure aborts;
//   optional     failures are ignored; the barrier never waits for
//                optional subjobs, which join as and when they check in
//                (including after release).
//
// Both co-allocators of §4.1 are this one API.  DUROC is the API used
// directly: an agent creates a request through core::Coallocator, edits it
// while watching its subjob callbacks, commits, and then monitors and
// controls the released ensemble.  GRAB (atomic transactions) is the
// degenerate configuration "all subjobs required, commit immediately, no
// edits" (core/grab.hpp).
//
// Subjob handles are dense: add_subjob() hands out 1, 2, ... and no slot
// is ever erased or reused (a removed subjob stays as kDeleted, a
// substituted one keeps its handle), so handles 1..subjob_count() are the
// slots in insertion order.  subjob_brief() is the one view of a slot.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/barrier_protocol.hpp"
#include "core/runtime.hpp"
#include "core/types.hpp"
#include "gram/client.hpp"
#include "rsl/attributes.hpp"
#include "simkit/annotate.hpp"

namespace grid::core {

/// Resolves a resourceManagerContact string to a gatekeeper address.
/// Called once per subjob at submission time.
using ContactResolver =  // gridlint: allow(hot-function)
    std::function<util::Result<net::NodeId>(const std::string&)>;

struct RequestConfig {
  /// Timeout of each protocol phase of a GRAM interaction.
  sim::Time rpc_timeout = 30 * sim::kSecond;
  /// Deadline from subjob submission to full barrier check-in; expiry is a
  /// failure handled per the subjob's category.  0 disables.  Earlier
  /// detection of a silent resource manager is the job of a
  /// core::HeartbeatDetector, which the agent attaches to the request.
  sim::Time startup_timeout = 10 * sim::kMinute;
  /// Ablation knob (bench/ablate_pipelining): when true the pipeline holds
  /// the next subjob until the previous one has fully checked in — the
  /// "zero concurrency" behaviour Figure 4 compares against.  The default
  /// (false) overlaps remote processing with later submissions.
  bool serialize_until_checkin = false;
};

// Registration-time callbacks: each fires at most once per subjob state
// edge or request lifetime event, never per network message.
struct RequestCallbacks {
  /// Fired on every subjob state transition.  For failures the status
  /// carries the cause; interactive-failure edits are made from here.
  /// gridlint: allow(hot-function)
  std::function<void(SubjobHandle, SubjobState, const util::Status&)>
      on_subjob;
  /// Fired once when the barrier releases, with the final configuration.
  /// gridlint: allow(hot-function)
  std::function<void(const RuntimeConfig&)> on_released;
  /// Fired once when the request terminates: OK when every live subjob ran
  /// to completion, an error when aborted.  gridlint: allow(hot-function)
  std::function<void(const util::Status&)> on_terminal;
};

class Coallocator;

class GRID_HOT CoallocationRequest {
 public:
  CoallocationRequest(Coallocator& owner, RequestId id,
                      RequestCallbacks callbacks, RequestConfig config);
  ~CoallocationRequest();

  CoallocationRequest(const CoallocationRequest&) = delete;
  CoallocationRequest& operator=(const CoallocationRequest&) = delete;

  RequestId id() const { return id_; }
  RequestState state() const { return state_; }

  // ---- editing operations (§3.2: add / delete / substitute) --------------

  /// Appends a subjob.  Before start() it is queued; after start() it is
  /// submitted when the pipeline reaches it.  Rejected after commit().
  util::Result<SubjobHandle> add_subjob(rsl::JobRequest request);

  /// Parses a '+' multi-request and adds every subjob.
  util::Status add_rsl(const std::string& rsl_text);

  /// Edits a subjob out of the request.  Its GRAM job (if any) is
  /// cancelled and its processes aborted.  Rejected after commit().
  util::Status remove_subjob(SubjobHandle handle);

  /// Replaces a subjob's specification; the slot keeps its handle and is
  /// re-submitted.  Rejected after commit().
  util::Status substitute_subjob(SubjobHandle handle, rsl::JobRequest request);

  // ---- lifecycle ----------------------------------------------------------

  /// Begins the sequential submission pipeline (idempotent).
  void start();

  /// Enters the commit phase: edits are frozen and the barrier releases
  /// once every live non-optional subjob has checked in.  Fails if no
  /// submissions were started or the request already left the edit phase.
  util::Status commit();

  /// Aborts the computation: cancels all GRAM jobs, aborts all checked-in
  /// processes, and reports kAborted.
  void abort(const std::string& reason);

  /// Control operation (§3.4): kills the ensemble, valid in any phase.
  void kill() { abort("killed by control operation"); }

  /// External failure verdict (e.g. from a heartbeat detector): fails the
  /// subjob with the category semantics of §3.2, exactly as an internally
  /// observed GRAM failure would.  No-op on unknown or already-terminal
  /// slots, so a late verdict against an edited slot is harmless.
  void report_subjob_failure(SubjobHandle handle, util::Status why) {
    fail_subjob(handle, std::move(why));
  }

  // ---- monitoring (§3.4) --------------------------------------------------

  /// Fixed-size view of one subjob slot, with no string copies: what
  /// periodic monitors (heartbeats) and agent strategies read on every
  /// callback, and the per-subjob timeline of Figure 5 (-1 until reached).
  struct SubjobBrief {
    SubjobState state = SubjobState::kUnsubmitted;
    rsl::SubjobStartType start_type = rsl::SubjobStartType::kRequired;
    std::int32_t count = 0;
    std::int32_t checked_in = 0;
    gram::JobId gram_job = 0;  // names its gatekeeper (gram::gatekeeper_of)
    sim::Time submitted_at = -1;
    sim::Time accepted_at = -1;
    sim::Time active_at = -1;
    sim::Time checked_in_at = -1;
    sim::Time released_at = -1;
  };

  /// Slots ever added; their handles are 1..subjob_count().
  std::size_t subjob_count() const { return slots_.size(); }
  util::Result<SubjobBrief> subjob_brief(SubjobHandle handle) const;
  /// The full specification currently bound to a slot (agents use this to
  /// build substitutes from the failed subjob's shape).
  util::Result<rsl::JobRequest> subjob_request(SubjobHandle handle) const;
  sim::Time released_at() const { return released_at_; }

  /// The configuration sent at release (valid once state >= kReleased).
  const RuntimeConfig& runtime_config() const { return config_table_; }

 private:
  friend class Coallocator;

  struct Subjob {
    SubjobHandle handle = 0;
    rsl::JobRequest request;
    SubjobState state = SubjobState::kUnsubmitted;
    std::uint32_t incarnation = 0;
    gram::JobId gram_job = 0;
    /// Indexed by local rank; kInvalidNode until that rank checks in.
    std::vector<net::NodeId> process_nodes;
    std::int32_t checked_count = 0;
    bool queued = false;    // waiting in the submission pipeline
    util::Status failure;
    sim::EventId timeout_event;
    /// Check-ins that overtook the GRAM accept reply on a jittery network;
    /// replayed once the job id is known.
    std::vector<std::pair<net::NodeId, CheckinMessage>> early_checkins;
    sim::Time submitted_at = -1;
    sim::Time accepted_at = -1;
    sim::Time active_at = -1;
    sim::Time checked_in_at = -1;
    sim::Time released_at = -1;
  };

  // Submission pipeline.
  void enqueue_submission(SubjobHandle handle);
  void pump_submissions();
  void on_accepted(SubjobHandle handle, std::uint32_t incarnation,
                   util::Result<gram::JobId> result);
  void on_gram_state(SubjobHandle handle, std::uint32_t incarnation,
                     const gram::JobStateChange& change);

  // Barrier.
  void on_checkin(net::NodeId src, const CheckinMessage& msg);
  void maybe_release();
  /// Appends `sj` to the release configuration after the subjobs already
  /// in it, so existing ranks never move.
  void add_layout(const Subjob& sj);
  /// Marks `sj` released and lets each of its processes out of the barrier.
  void send_releases(Subjob& sj);
  void send_release(const Subjob& sj, std::int32_t rank);

  /// Why an edit of `handle` is refused: the request left the editing
  /// phase, or the handle names no live slot.  OK when it may proceed.
  util::Status check_edit(SubjobHandle handle) const;

  // Failure handling.
  void fail_subjob(SubjobHandle handle, util::Status why);
  /// Lets go of a subjob for every edit, failure and abort: cancels its
  /// startup timer, forgets and cancels its GRAM job, and tells its
  /// checked-in processes to abort with `reason`.
  void retire(Subjob& sj, const std::string& reason);
  /// If the serialize_until_checkin pipeline holds for `handle`, lets the
  /// next submission go.  Pumping may run agent callbacks and move slots.
  void release_hold(SubjobHandle handle);
  void arm_timeout(Subjob& sj);
  void maybe_done();
  void finish(util::Status status);

  void notify_subjob(const Subjob& sj);
  /// The slot behind `handle`, or nullptr for a handle never issued.  A
  /// callback may add a subjob and so move every slot: code that runs one
  /// looks its slot up again afterwards.
  Subjob* find(SubjobHandle handle);
  const Subjob* find(SubjobHandle handle) const;
  bool is_live(const Subjob& sj) const {
    return sj.state != SubjobState::kFailed &&
           sj.state != SubjobState::kDeleted;
  }

  Coallocator* owner_;
  RequestId id_;
  RequestCallbacks callbacks_;
  RequestConfig config_;

  RequestState state_ = RequestState::kEditing;
  bool started_ = false;
  bool submission_in_flight_ = false;
  SubjobHandle hold_handle_ = 0;  // serialize_until_checkin gate
  std::deque<SubjobHandle> submit_queue_;
  std::vector<Subjob> slots_;  // handle h at index h - 1
  RuntimeConfig config_table_;
  sim::Time released_at_ = -1;
};

}  // namespace grid::core
