#include "simkit/bufpool.hpp"

#include <utility>

namespace grid::sim {

const std::vector<std::uint8_t>& Payload::bytes() const {
  static const std::vector<std::uint8_t> kEmpty;
  return buf_ != nullptr ? buf_->data : kEmpty;
}

BufferPool::~BufferPool() {
  // Outstanding handles at pool destruction would dangle; in practice the
  // pool is thread-local and outlives every simulation object on its
  // thread.  Freeing here keeps leak checkers quiet at thread exit.
  for (detail::PayloadBuffer* b : all_) delete b;
}

Payload BufferPool::acquire() {
  ++stats_.acquired;
  detail::PayloadBuffer* b = free_;
  if (b != nullptr) {
    GRID_CHECK(b->on_free_list && b->refs == 0,
               "BufferPool free list holds a live buffer (double take?)");
    b->on_free_list = false;
    free_ = b->next_free;
    b->next_free = nullptr;
    ++stats_.recycled;
  } else {
    // Pool growth, cold path — the buffer is owned by all_ for the pool's
    // lifetime and recycled thereafter.  gridlint: allow(naked-new)
    b = new detail::PayloadBuffer;
    b->pool = this;
    all_.push_back(b);
    ++stats_.fresh;
  }
  b->refs = 1;
  return Payload(b);
}

void BufferPool::release(detail::PayloadBuffer* b) {
  GRID_CHECK(!b->on_free_list,
             "BufferPool::release of a buffer already on the free list");
  GRID_CHECK(b->refs == 0, "BufferPool::release of a buffer with live refs");
  b->data.clear();  // keeps capacity
  b->recycled = true;
  b->on_free_list = true;
  b->next_free = free_;
  free_ = b;
}

std::size_t BufferPool::free_count() const {
  std::size_t n = 0;
  for (detail::PayloadBuffer* b = free_; b != nullptr; b = b->next_free) ++n;
  return n;
}

BufferPool& BufferPool::local() {
  // Per-thread by design: each TrialPool worker recycles its own buffers,
  // so the pool never needs a lock and never crosses trials.
  GRID_SHARD_LOCAL thread_local BufferPool pool;
  return pool;
}

}  // namespace grid::sim
