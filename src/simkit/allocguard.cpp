// Global counting allocator hook backing sim::AllocGuard.
//
// Replaces the replaceable global allocation functions with counting
// versions (one thread_local increment per allocation, then malloc /
// aligned_alloc exactly like the defaults) and keeps a thread_local count
// of live bytes: each block's malloc_usable_size is added when it is
// allocated and subtracted when it is freed.  The static library holds
// these replacements in this TU, so the linker pulls it into every binary
// that calls `operator new`; see allocguard.hpp.  Sanitizer builds still
// see every allocation: the replacements bottom out in malloc/free, which
// ASan/TSan intercept (malloc_usable_size too).
#include "simkit/allocguard.hpp"

#include "simkit/annotate.hpp"

#include <malloc.h>

#include <cstdlib>
#include <new>

namespace {
GRID_SHARD_LOCAL thread_local std::uint64_t t_alloc_count = 0;
GRID_SHARD_LOCAL thread_local std::int64_t t_live_bytes = 0;

void* counted(void* p) {
  if (p != nullptr) {
    ++t_alloc_count;
    t_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  t_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}
}  // namespace

namespace grid::sim {

std::uint64_t AllocGuard::thread_allocations() { return t_alloc_count; }
std::int64_t AllocGuard::thread_live_bytes() { return t_live_bytes; }

}  // namespace grid::sim

// gridlint: allow(naked-new): this IS the allocator — the counting
// replacements for the global allocation functions.
void* operator new(std::size_t n) {
  void* p = counted(std::malloc(n > 0 ? n : 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(std::malloc(n > 0 ? n : 1));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
void* operator new(std::size_t n, std::align_val_t al) {
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = counted(std::aligned_alloc(a, (n + a - 1) / a * a));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
