/// \file test_trace_alloc.cpp
/// A thread's trace ring grows with the events it records, so a thread
/// that only names its lane -- as every ThreadPool worker does, traced
/// or not -- holds no event storage. Buffers outlive their threads, so a
/// ring reserved at registration stayed allocated for every pool thread
/// a long-running process ever started. This executable replaces the
/// global operator new to count the bytes requested.

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include <gtest/gtest.h>

#include "trace/trace.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<long long> g_bytes{0};
}  // namespace

// The replacements pair operator new with std::malloc and operator
// delete with std::free, which GCC's mismatch check cannot see.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(static_cast<long long>(size), std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace sscl::trace {
namespace {

TEST(TraceAllocations, NamedThreadThatRecordsNothingHoldsNoRing) {
  disable();
  g_bytes = 0;
  g_counting = true;
  std::thread t([] { set_thread_name("idle-worker"); });
  t.join();
  g_counting = false;
  // The registration (one buffer record, its name, the registry's slot)
  // and std::thread's state. A ring reserved at the default capacity
  // would add 32768 events of sizeof(Event) bytes.
  EXPECT_LT(g_bytes.load(), 4096);
}

TEST(TraceAllocations, RingStopsGrowingAtItsCapacity) {
  set_ring_capacity(16);
  reset();
  enable();
  std::thread t([] {
    for (int i = 0; i < 16; ++i) Span s("fill", "test");
    g_bytes = 0;
    g_counting = true;
    for (int i = 0; i < 1000; ++i) Span s("wrap", "test");
    g_counting = false;
  });
  t.join();
  disable();
  // A full ring overwrites its slots in place.
  EXPECT_EQ(g_bytes.load(), 0);
  set_ring_capacity(32768);
}

}  // namespace
}  // namespace sscl::trace
