// Counting global allocator: replaces operator new/delete for the whole
// benchmark binary (program and benchmark alike). The count is a relaxed
// atomic bumped only while enabled, so the plain mode pays one load.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "tracer.h"

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_allocs{0};
thread_local int t_suppress = 0;

void Count() {
  if (g_enabled.load(std::memory_order_relaxed) && t_suppress == 0) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* Alloc(std::size_t n) {
  Count();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocAligned(std::size_t n, std::align_val_t al) {
  Count();
  void* p = nullptr;
  const std::size_t a = std::max(static_cast<std::size_t>(al), sizeof(void*));
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void EnableAllocCount(bool on) { g_enabled.store(on); }
std::uint64_t AllocCount() { return g_allocs.load(); }

SuppressAllocCount::SuppressAllocCount() { ++t_suppress; }
SuppressAllocCount::~SuppressAllocCount() { --t_suppress; }

AllowAllocCount::AllowAllocCount() : saved_(t_suppress) { t_suppress = 0; }
AllowAllocCount::~AllowAllocCount() { t_suppress = saved_; }

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::Alloc(n); }
void* operator new[](std::size_t n) { return perfbench::Alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::AllocAligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::AllocAligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
