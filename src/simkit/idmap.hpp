// Open-addressed id index and the slab built on it.
//
// The RPC layer keeps one table entry per in-flight call, keyed by a
// monotonically increasing 64-bit call id.  `std::unordered_map` pays a
// node allocation per insert — on the hot path, per message.  `IdSlab`
// instead stores entries in a slot vector recycled through a free list
// (mirroring the engine's slab of event entries), with `IdMap` — a small
// open-addressed hash table with backward-shift deletion — mapping the
// sparse ids to slot indices.  Steady state allocates nothing: both the
// slot vector and the hash cells retain capacity across erase/insert.
//
// Keys must be nonzero (0 is the empty-cell marker); call ids start at 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "simkit/annotate.hpp"
#include "simkit/check.hpp"

namespace grid::sim {

/// uint64 -> uint32 open-addressed hash map, linear probing, power-of-two
/// capacity, backward-shift deletion (no tombstones, so lookup cost never
/// degrades under churn).  Key 0 marks an empty cell and is never found.
class GRID_HOT IdMap {
 public:
  static constexpr std::uint32_t kNotFound = 0xffffffffu;

  void insert(std::uint64_t key, std::uint32_t value) {
    GRID_CHECK(key != 0, "IdMap key 0 is reserved (empty-cell marker)");
    GRID_CHECK(find(key) == kNotFound, "IdMap::insert of a key already present");
    if (cells_.empty() || (size_ + 1) * 4 >= cells_.size() * 3) grow();
    const std::size_t mask = cells_.size() - 1;
    std::size_t i = hash(key) & mask;
    while (cells_[i].key != 0) i = (i + 1) & mask;
    cells_[i] = Cell{key, value};
    ++size_;
  }

  std::uint32_t find(std::uint64_t key) const {
    if (size_ == 0 || key == 0) return kNotFound;
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      if (cells_[i].key == key) return cells_[i].value;
      if (cells_[i].key == 0) return kNotFound;
    }
  }

  bool erase(std::uint64_t key) {
    if (size_ == 0 || key == 0) return false;
    const std::size_t mask = cells_.size() - 1;
    std::size_t hole = hash(key) & mask;
    while (cells_[hole].key != key) {
      if (cells_[hole].key == 0) return false;
      hole = (hole + 1) & mask;
    }
    // Backward-shift: walk the probe run after the hole and pull back any
    // entry whose home slot means it can legally occupy the hole.
    std::size_t j = hole;
    while (true) {
      j = (j + 1) & mask;
      if (cells_[j].key == 0) break;
      const std::size_t home = hash(cells_[j].key) & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole] = Cell{};
    --size_;
    return true;
  }

  /// Empties the map but keeps the cell array's capacity.
  void clear() {
    for (Cell& c : cells_) c = Cell{};
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cells_.size(); }

 private:
  struct Cell {
    std::uint64_t key = 0;
    std::uint32_t value = 0;
  };

  static std::size_t hash(std::uint64_t k) {
    // splitmix64 finalizer: sequential ids spread over the whole table.
    k ^= k >> 30;
    k *= 0xbf58476d1ce4e5b9ULL;
    k ^= k >> 27;
    k *= 0x94d049bb133111ebULL;
    k ^= k >> 31;
    return static_cast<std::size_t>(k);
  }

  void grow() {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(old.empty() ? 16 : old.size() * 2, Cell{});
    size_ = 0;
    for (const Cell& c : old) {
      if (c.key != 0) insert(c.key, c.value);
    }
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
};

/// Slab of T keyed by sparse nonzero 64-bit ids.  Slots are recycled
/// through a free list; lookups go through an IdMap index.  References
/// returned by find()/emplace() stay valid until that entry is erased or
/// the slab grows (so: don't hold them across an emplace).
template <typename T>
class GRID_HOT IdSlab {
 public:
  T& emplace(std::uint64_t id, T&& value) {
    GRID_CHECK(id != 0, "IdSlab ids must be nonzero");
    GRID_CHECK(index_.find(id) == IdMap::kNotFound,
               "IdSlab::emplace of an id already present");
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      GRID_CHECK(slots_[slot].id == 0,
                 "IdSlab free list holds an occupied slot");
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot].id = id;
    slots_[slot].value.emplace(std::move(value));
    index_.insert(id, slot);
    return *slots_[slot].value;
  }

  T* find(std::uint64_t id) {
    const std::uint32_t slot = index_.find(id);
    if (slot == IdMap::kNotFound) return nullptr;
    GRID_CHECK(slots_[slot].id == id,
               "IdSlab index/slot generation mismatch (stale index entry)");
    return &*slots_[slot].value;
  }

  const T* find(std::uint64_t id) const {
    const std::uint32_t slot = index_.find(id);
    if (slot == IdMap::kNotFound) return nullptr;
    GRID_CHECK(slots_[slot].id == id,
               "IdSlab index/slot generation mismatch (stale index entry)");
    return &*slots_[slot].value;
  }

  bool erase(std::uint64_t id) {
    const std::uint32_t slot = index_.find(id);
    if (slot == IdMap::kNotFound) return false;
    GRID_CHECK(slots_[slot].id == id,
               "IdSlab index/slot generation mismatch (stale index entry)");
    slots_[slot].value.reset();
    slots_[slot].id = 0;
    free_.push_back(slot);
    index_.erase(id);
    GRID_CHECK(consistent(), "IdSlab inconsistent after erase");
    return true;
  }

  /// Visits every live entry as fn(id, T&), in slot order — a deterministic
  /// order (a pure function of the emplace/erase history, never of hashing),
  /// which is why code that sends messages or schedules events may iterate
  /// an IdSlab but not an unordered container.  Erasing during iteration is
  /// not supported — collect ids first or use clear().
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.id != 0) fn(s.id, *s.value);
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.id != 0) fn(s.id, *s.value);
    }
  }

  /// Destroys every entry; keeps slot/free-list/index capacity.
  void clear() {
    for (Slot& s : slots_) {
      if (s.id != 0) {
        s.value.reset();
        s.id = 0;
      }
    }
    free_.clear();
    for (std::uint32_t i = 0; i < slots_.size(); ++i) free_.push_back(i);
    index_.clear();
  }

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  /// Full cross-check of slab/index/free-list agreement: every live slot
  /// maps back to itself through the index, the index holds exactly the
  /// live slots, and the free list holds exactly the vacant ones.  O(n);
  /// called from GRID_CHECKED tripwires and tests, never the fast path.
  bool consistent() const {
    std::size_t live = 0;
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      if (s.id == 0) {
        if (s.value.has_value()) return false;
        continue;
      }
      ++live;
      if (!s.value.has_value()) return false;
      if (index_.find(s.id) != i) return false;
    }
    if (live != index_.size()) return false;
    if (live + free_.size() != slots_.size()) return false;
    for (const std::uint32_t f : free_) {
      if (f >= slots_.size() || slots_[f].id != 0) return false;
    }
    return true;
  }

 private:
  struct Slot {
    std::uint64_t id = 0;  // 0 = vacant
    std::optional<T> value;
  };

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  IdMap index_;
};

}  // namespace grid::sim
