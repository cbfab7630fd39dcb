// Discrete-event simulation engine.
//
// The engine owns a priority queue of (time, sequence, callback) events and
// advances a virtual clock.  Events scheduled for the same instant fire in
// scheduling order (FIFO), which makes protocol traces deterministic.
//
// Hot-path layout (see DESIGN.md §5.2): event entries live in a slab with a
// free list, so steady-state scheduling performs no allocation; the pending
// set is an index-tracking 4-ary heap (each entry records its heap slot), so
// `cancel` removes the entry in place in O(log n) with no auxiliary map and
// no lazy tombstones; callbacks are `InplaceFunction<64>`, so the common
// captures (an endpoint pointer plus a sequence number or deadline) never
// touch the heap.  The schedule-then-cancel pattern of the retry/heartbeat
// machinery is exactly the traffic this layout is built for.
//
// `kTimeNever` contract: an event scheduled at exactly `kTimeNever` (which
// is where `schedule_after` lands when the delay overflows past the end of
// time) is unreachable — `step`, `run`, and `run_until` never fire it, even
// `run_until(kTimeNever)`.  It still counts as pending and can be cancelled;
// it is released when the engine is destroyed.
#pragma once

#include <cstdint>
#include <vector>

#include "simkit/annotate.hpp"
#include "simkit/check.hpp"
#include "simkit/inplace_function.hpp"
#include "simkit/time.hpp"

namespace grid::sim {

/// Opaque handle to a scheduled event; valid until the event fires or is
/// cancelled.  A default-constructed handle refers to no event.  Handles are
/// generation-checked: once the event fires or is cancelled, the handle goes
/// stale and `cancel` on it returns false even if the underlying slab slot
/// has been reused by a newer event.
class EventId {
 public:
  EventId() = default;
  bool valid() const { return raw_ != 0; }
  friend bool operator==(const EventId&, const EventId&) = default;

 private:
  friend class Engine;
  explicit EventId(std::uint64_t raw) : raw_(raw) {}
  // Low 32 bits: slab slot.  High 32 bits: slot generation (never zero for
  // a live handle, so a default-constructed id never matches).
  std::uint64_t raw_ = 0;
};

/// The simulation engine.  Not thread-safe: a simulation is a single-threaded
/// event loop by design (see DESIGN.md §5.2); determinism is the point.
/// Trial-level parallelism lives above the engine (see trialpool.hpp): one
/// fully-isolated Engine per seeded trial.
class GRID_HOT Engine {
 public:
  using Callback = InplaceFunction<64>;

  Engine() = default;
  ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `t` (>= now()).
  /// Scheduling in the past is clamped to now().  Scheduling at exactly
  /// `kTimeNever` parks the event forever (see the contract above).
  EventId schedule_at(Time t, Callback fn);

  /// Schedules `fn` to run `delay` after the current time.  A delay that
  /// overflows past the end of time parks the event at `kTimeNever`.
  EventId schedule_after(Time delay, Callback fn) {
    return schedule_at(delay >= kTimeNever - now_ ? kTimeNever : now_ + delay,
                       std::move(fn));
  }

  /// Cancels a pending event.  Returns true if the event was still pending.
  bool cancel(EventId id);

  /// Runs a single event.  Returns false if no runnable event remains
  /// (the queue is empty or holds only kTimeNever-parked events).
  bool step();

  /// Runs until no runnable event remains.
  void run();

  /// Runs until the clock would pass `deadline` or the runnable events
  /// drain.  The clock is left at min(deadline, last event time).
  /// kTimeNever-parked events never fire, even with deadline == kTimeNever.
  void run_until(Time deadline);

  /// Number of pending (non-cancelled) events, including parked ones.
  std::size_t pending() const { return heap_.size(); }

  /// Total number of events executed since construction.
  std::uint64_t executed() const { return executed_; }

  /// Self-audit of the index-tracking heap: the 4-ary heap property holds
  /// and every heap item's slab entry records its true position.  O(n);
  /// GRID_CHECKED builds run it after every cancel (the only operation
  /// that moves an arbitrary interior item), tests may call it directly.
  bool heap_consistent() const;

 private:
  // The slab holds the callback and the handle generation; the sort key
  // lives inline in the heap items so comparisons during sift never chase
  // into the slab.
  struct Entry {
    std::uint32_t gen = 1;       // bumped when the slot is freed
    std::uint32_t heap_pos = 0;  // index into heap_ while scheduled
    Callback fn;
  };
  struct HeapItem {
    Time at;
    std::uint64_t seq;   // tie-break: FIFO among same-time events
    std::uint32_t slot;  // slab index of the entry
  };

  static constexpr std::uint32_t kArity = 4;

  static bool before(const HeapItem& a, const HeapItem& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  void place(std::uint32_t pos, const HeapItem& item) {
    heap_[pos] = item;
    slots_[item.slot].heap_pos = pos;
  }
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  void heap_erase(std::uint32_t pos);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  // Slab of event entries; freed slots are recycled through free_ instead
  // of the allocator.  A plain vector (entries move on growth), so no code
  // may hold an Entry reference across anything that can schedule — the
  // firing callback is moved out of the slab before it runs.
  std::vector<Entry> slots_;
  std::vector<std::uint32_t> free_;
  // 4-ary min-heap ordered by (at, seq).  Entries know their position, so
  // erase-by-handle needs no search and no tombstones.
  std::vector<HeapItem> heap_;
};

}  // namespace grid::sim
