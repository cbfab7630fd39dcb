#include "simkit/engine.hpp"

#include <cassert>
#include <utility>

namespace grid::sim {

namespace {

constexpr std::uint64_t kSlotMask = 0xffffffffULL;

std::uint32_t id_slot(std::uint64_t raw) {
  return static_cast<std::uint32_t>(raw & kSlotMask);
}

std::uint32_t id_gen(std::uint64_t raw) {
  return static_cast<std::uint32_t>(raw >> 32);
}

std::uint64_t make_raw(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) | slot;
}

}  // namespace

std::uint32_t Engine::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Engine::release_slot(std::uint32_t slot) {
  Entry& e = slots_[slot];
  e.fn = nullptr;  // release captured state eagerly
  // Bumping the generation invalidates every outstanding EventId for this
  // slot; gen is kept nonzero so a live raw id never equals 0 (invalid).
  if (++e.gen == 0) e.gen = 1;
  free_.push_back(slot);
}

void Engine::sift_up(std::uint32_t pos) {
  const HeapItem item = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / kArity;
    if (!before(item, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, item);
}

void Engine::sift_down(std::uint32_t pos) {
  const HeapItem item = heap_[pos];
  const std::uint32_t size = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first_child = pos * kArity + 1;
    if (first_child >= size) break;
    const std::uint32_t last_child =
        first_child + kArity - 1 < size ? first_child + kArity - 1 : size - 1;
    std::uint32_t best = first_child;
    for (std::uint32_t c = first_child + 1; c <= last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], item)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, item);
}

void Engine::heap_erase(std::uint32_t pos) {
  const std::uint32_t last = static_cast<std::uint32_t>(heap_.size()) - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  const HeapItem displaced = heap_[last];
  heap_.pop_back();
  place(pos, displaced);
  // The displaced entry may need to move either direction.
  if (pos > 0 && before(displaced, heap_[(pos - 1) / kArity])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

EventId Engine::schedule_at(Time t, Callback fn) {
  if (t < now_) t = now_;
  const std::uint32_t slot = acquire_slot();
  Entry& e = slots_[slot];
  e.fn = std::move(fn);
  const std::uint32_t pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(HeapItem{t, next_seq_++, slot});
  e.heap_pos = pos;
  sift_up(pos);
  return EventId(make_raw(slot, e.gen));
}

bool Engine::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t slot = id_slot(id.raw_);
  if (slot >= slots_.size()) return false;
  Entry& e = slots_[slot];
  // A live slot's generation matches every id handed out for its current
  // occupancy; once fired/cancelled the generation moves on and stale
  // handles fall through here.
  if (e.gen != id_gen(id.raw_)) return false;
  heap_erase(e.heap_pos);
  release_slot(slot);
  GRID_CHECK(heap_consistent(),
             "Engine heap inconsistent after cancel (index-tracking broke)");
  return true;
}

bool Engine::heap_consistent() const {
  for (std::uint32_t i = 0; i < heap_.size(); ++i) {
    const HeapItem& item = heap_[i];
    if (i > 0 && before(item, heap_[(i - 1) / kArity])) return false;
    if (item.slot >= slots_.size()) return false;
    if (slots_[item.slot].heap_pos != i) return false;
  }
  return true;
}

bool Engine::step() {
  if (heap_.empty()) return false;
  const HeapItem next = heap_[0];
  if (next.at == kTimeNever) return false;  // parked: unreachable by time
  assert(next.at >= now_);
  now_ = next.at;
  heap_erase(0);
  ++executed_;
  Callback fn = std::move(slots_[next.slot].fn);
  release_slot(next.slot);
  fn();
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(Time deadline) {
  for (;;) {
    if (heap_.empty()) return;
    const HeapItem next = heap_[0];
    if (next.at == kTimeNever) return;
    if (next.at > deadline) {
      // The next event is beyond the horizon; the clock stops at the
      // deadline and the event stays queued untouched.
      now_ = deadline > now_ ? deadline : now_;
      return;
    }
    now_ = next.at;
    heap_erase(0);
    ++executed_;
    Callback fn = std::move(slots_[next.slot].fn);
    release_slot(next.slot);
    fn();
  }
}

}  // namespace grid::sim
