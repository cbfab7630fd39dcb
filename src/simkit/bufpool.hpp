// Pooled, ref-counted payload buffers for the message path.
//
// Every RPC frame used to be a fresh `std::vector<uint8_t>`: allocated by
// the Writer, moved into the network, freed after delivery.  At millions of
// messages per ensemble that churn dominates wall-clock (the engine itself
// went allocation-free in the previous round).  `BufferPool` instead hands
// out capacity-retaining buffers that return to a free list when the last
// `Payload` handle drops, so the steady state recycles a handful of buffers
// with zero heap traffic.
//
// Ownership model:
//   - `Payload` is a move-only handle; exactly one handle per buffer in the
//     common point-to-point case, so "who owns the bytes" is always the
//     holder of the handle (Writer -> Network -> delivery lambda).
//   - Fan-out paths (DUROC barrier re-send, abort broadcast, gridmpi
//     tables) call `share()` to take an extra ref-counted handle on the
//     same buffer: one encode, N sends, no copies.  Sharing is explicit so
//     accidental aliasing cannot happen via a copy constructor.
//   - Buffers belong to a thread-local pool (`BufferPool::local()`), which
//     matches sim::TrialPool's one-trial-per-thread isolation: handles must
//     not cross threads, and never do (each trial owns its whole world).
//
// Under GRID_CHECKED (see simkit/check.hpp) the pool turns its ownership
// rules into tripwires: releasing a buffer that is already on the free
// list (double take-back), handing out a free-list buffer with live
// references (free-list corruption), or mutating a shared buffer all
// abort with a diagnostic instead of silently corrupting payloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simkit/annotate.hpp"
#include "simkit/check.hpp"

namespace grid::sim {

class BufferPool;

namespace detail {
/// The shared backing store.  Lives in a pool's `all_` list for its whole
/// lifetime; cycles between "held by Payload handles" and "on the free
/// list".  `data` keeps its capacity across recycles — that is the point.
struct PayloadBuffer {
  std::vector<std::uint8_t> data;
  std::uint32_t refs = 0;
  /// False only until the buffer's first trip through the free list.
  /// Drives the NetworkStats fresh/recycled accounting.
  bool recycled = false;
  /// True while the buffer sits on the pool's free list.  The GRID_CHECKED
  /// tripwires use it to catch double-release and use-after-release; the
  /// fast path never reads it.
  bool on_free_list = false;
  PayloadBuffer* next_free = nullptr;
  BufferPool* pool = nullptr;
};
}  // namespace detail

/// Move-only handle to a pooled byte buffer.  Default-constructed handles
/// are empty (no buffer) and cost nothing.
class GRID_HOT Payload {
 public:
  Payload() = default;

  Payload(Payload&& other) noexcept : buf_(other.buf_) { other.buf_ = nullptr; }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      buf_ = other.buf_;
      other.buf_ = nullptr;
    }
    return *this;
  }
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;
  ~Payload() { reset(); }

  /// Another handle to the same buffer (ref-count bump, no copy).  The
  /// bytes must be treated as frozen once shared: any holder's Reader sees
  /// the same storage.
  Payload share() const {
    if (buf_ != nullptr) {
      GRID_CHECK(!buf_->on_free_list && buf_->refs > 0,
                 "Payload::share on a buffer already returned to the pool");
      ++buf_->refs;
    }
    return Payload(buf_);
  }

  const std::uint8_t* data() const {
    return buf_ != nullptr ? buf_->data.data() : nullptr;
  }
  std::size_t size() const { return buf_ != nullptr ? buf_->data.size() : 0; }
  bool empty() const { return size() == 0; }
  bool attached() const { return buf_ != nullptr; }
  std::uint32_t ref_count() const { return buf_ != nullptr ? buf_->refs : 0; }

  /// True when the backing buffer was recycled from the pool's free list
  /// rather than freshly heap-allocated.  Feeds per-message allocation
  /// accounting in NetworkStats.
  bool recycled() const { return buf_ != nullptr && buf_->recycled; }

  /// Releases this handle; the buffer returns to its pool when the last
  /// handle drops.
  void reset();

  /// The backing vector.  Only the unique owner (ref_count() == 1) may
  /// mutate; the Writer is the only mutating client.
  std::vector<std::uint8_t>& mutable_bytes() {
    GRID_CHECK(buf_ != nullptr && !buf_->on_free_list,
               "Payload::mutable_bytes on a released buffer");
    GRID_CHECK(buf_->refs == 1,
               "Payload::mutable_bytes on a shared buffer (frozen once "
               "shared; only the unique owner may mutate)");
    return buf_->data;
  }
  const std::vector<std::uint8_t>& bytes() const;

 private:
  friend class BufferPool;
  explicit Payload(detail::PayloadBuffer* buf) : buf_(buf) {}
  detail::PayloadBuffer* buf_ = nullptr;
};

/// Recycling allocator for payload buffers.  Not thread-safe by design:
/// use the thread-local instance via local().
class GRID_HOT BufferPool {
 public:
  struct Stats {
    std::uint64_t acquired = 0;  // total acquire() calls
    std::uint64_t fresh = 0;     // served by a new heap allocation
    std::uint64_t recycled = 0;  // served from the free list
  };

  BufferPool() = default;
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// An empty buffer, recycled if possible.  Capacity from its previous
  /// life is retained.
  Payload acquire();

  const Stats& stats() const { return stats_; }
  std::size_t free_count() const;
  std::size_t total_buffers() const { return all_.size(); }

  /// The calling thread's pool.  All simkit payload traffic goes through
  /// this; per-thread pools keep TrialPool workers fully isolated.
  static BufferPool& local();

 private:
  friend class Payload;
  void release(detail::PayloadBuffer* b);

  std::vector<detail::PayloadBuffer*> all_;  // owns every buffer ever made
  detail::PayloadBuffer* free_ = nullptr;
  Stats stats_;
};

inline void Payload::reset() {
  if (buf_ != nullptr) {
    GRID_CHECK(!buf_->on_free_list && buf_->refs > 0,
               "Payload handle dropped after its buffer returned to the pool "
               "(double take-back)");
    if (--buf_->refs == 0) buf_->pool->release(buf_);
  }
  buf_ = nullptr;
}

}  // namespace grid::sim
