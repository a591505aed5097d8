/// \file counting_new.cpp
/// The global operator new/delete replacement behind counting_new.hpp.
/// Every form is replaced, so no allocation can pair one library's new
/// with another's delete (a sanitizer's nothrow new with this file's
/// free, say).

#include "counting_new.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long long> g_calls{0};
std::atomic<long long> g_bytes{0};

void* allocate(std::size_t size, std::size_t alignment) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_calls.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(static_cast<long long>(size), std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (alignment <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(alignment,
                            (size + alignment - 1) / alignment * alignment);
}

void* allocate_or_throw(std::size_t size, std::size_t alignment) {
  if (void* p = allocate(size, alignment)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace sscl::test_support {

void start_counting_allocations() {
  g_calls = 0;
  g_bytes = 0;
  g_counting = true;
}

AllocationCount stop_counting_allocations() {
  g_counting = false;
  return {g_calls.load(), g_bytes.load()};
}

}  // namespace sscl::test_support

// The replacements pair operator new with std::malloc and operator
// delete with std::free, which GCC's mismatch check cannot see.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) { return allocate_or_throw(size, 0); }
void* operator new[](std::size_t size) { return allocate_or_throw(size, 0); }
void* operator new(std::size_t size, std::align_val_t al) {
  return allocate_or_throw(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return allocate_or_throw(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size, 0);
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return allocate(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return allocate(size, static_cast<std::size_t>(al));
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
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
