/// \file test_trace_alloc.cpp
/// A thread's trace ring grows with the events it records, so a thread
/// that only names its lane -- as every ThreadPool worker does, traced
/// or not -- holds no event storage. Buffers outlive their threads, so a
/// ring reserved at registration stayed allocated for every pool thread
/// a long-running process ever started. This executable counts the
/// bytes operator new is asked for (support/counting_new.hpp).

#include <thread>

#include <gtest/gtest.h>

#include "support/counting_new.hpp"
#include "trace/trace.hpp"

namespace sscl::trace {
namespace {

TEST(TraceAllocations, NamedThreadThatRecordsNothingHoldsNoRing) {
  disable();
  test_support::start_counting_allocations();
  std::thread t([] { set_thread_name("idle-worker"); });
  t.join();
  const long long bytes = test_support::stop_counting_allocations().bytes;
  // The registration (one buffer record, its name, the registry's slot)
  // and std::thread's state. A ring reserved at the default capacity
  // would add 32768 events of sizeof(Event) bytes.
  EXPECT_LT(bytes, 4096);
}

TEST(TraceAllocations, RingStopsGrowingAtItsCapacity) {
  set_ring_capacity(16);
  reset();
  enable();
  long long bytes = -1;
  std::thread t([&bytes] {
    for (int i = 0; i < 16; ++i) Span s("fill", "test");
    test_support::start_counting_allocations();
    for (int i = 0; i < 1000; ++i) Span s("wrap", "test");
    bytes = test_support::stop_counting_allocations().bytes;
  });
  t.join();
  disable();
  // A full ring overwrites its slots in place.
  EXPECT_EQ(bytes, 0);
  set_ring_capacity(32768);
}

}  // namespace
}  // namespace sscl::trace
