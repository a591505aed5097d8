/// \file test_transient_alloc.cpp
/// The transient step loop allocates nothing per step attempt: Newton's
/// iterate, the predictor, the trial solution and the residual's row
/// sums live in buffers kept across steps, so the one allocation an
/// accepted step makes is the sample Waveform::append() stores. This
/// executable replaces the global operator new to count its calls.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "spice/engine.hpp"
#include "spice/transient.hpp"
#include "stscl/fabric.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<long long> g_allocations{0};
}  // namespace

// The replacements pair operator new with std::malloc and operator
// delete with std::free, which GCC's mismatch check cannot see.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace sscl::spice {
namespace {

/// Allocations a whole run_transient() may make besides one per accepted
/// step: the DC operating point, the breakpoint list, the step loop's
/// buffers, the amortised growth of the waveform's two vectors and of
/// the LU factors, and five scratch vectors per full (pivot-searching)
/// factorisation. The run below makes 95 with four full factorisations;
/// one allocation per step attempt would add about 100.
constexpr long long kSetupAllocations = 128;

TEST(TransientAllocations, AtMostOnePerAcceptedStep) {
  // The two-buffer pulse transient of
  // EngineGolden.BypassTransientMatchesBypassOffEngine.
  const device::Process proc = device::Process::c180();
  Circuit c;
  stscl::SclParams p;
  stscl::SclFabric fab(c, proc, p);
  stscl::DiffSignal in = fab.signal("in");
  const stscl::SclModel model;
  const double td = model.delay(p.iss);
  fab.drive_pulse(in, 4 * td, td / 4, 40 * td);
  fab.buffer(fab.buffer(in, "b0"), "b1");
  Engine engine(c);
  TransientOptions to;
  to.tstop = 12 * td;
  to.dt_max = td / 3;

  g_allocations = 0;
  g_counting = true;
  const Waveform w = run_transient(engine, to);
  g_counting = false;

  const EngineStats& st = engine.stats();
  const long long attempts = st.transient_steps + st.transient_rejects_lte +
                             st.transient_rejects_newton;
  std::printf("allocations %lld, accepted steps %lld, step attempts %lld, "
              "full factorisations %lld\n",
              g_allocations.load(), st.transient_steps, attempts,
              st.full_factors);
  ASSERT_GT(st.transient_steps, 50);
  EXPECT_EQ(static_cast<long long>(w.size()), st.transient_steps + 1);
  EXPECT_LE(g_allocations.load(), st.transient_steps + kSetupAllocations);
}

}  // namespace
}  // namespace sscl::spice
