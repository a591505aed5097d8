/// \file test_transient_alloc.cpp
/// The transient step loop allocates nothing per step: Newton's iterate,
/// the predictor, the trial solution, the residual's row sums and a full
/// factorisation's scratch live in buffers kept across steps, and
/// Waveform::append() copies each sample into a block that holds many.
/// This executable replaces the global operator new to count its calls.

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
/// buffers and the amortised growth of the waveform's two vectors and of
/// the LU factors. The 12 td run below makes 75-79 with four full
/// factorisations; one allocation per step attempt would add about 100.
constexpr long long kSetupAllocations = 128;

/// Allocations a whole run may make at the two step counts below: the
/// waveform keeps its samples in blocks of Waveform::kBlockBytes (about
/// 170 samples of this circuit each) and a full factorisation keeps its
/// scratch in the factors and in one per-thread set, so only geometric
/// growth (a few allocations per doubling) and one allocation per block
/// depend on the length of the run.
constexpr long long kRunAllocations = 96;

struct TransientRun {
  long long allocations = 0;
  EngineStats stats;
  std::size_t samples = 0;
};

/// The two-buffer pulse transient of
/// EngineGolden.BypassTransientMatchesBypassOffEngine, run to
/// \p tstop_delays gate delays; only run_transient() is counted.
TransientRun run_pulse_transient(double tstop_delays) {
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
  to.tstop = tstop_delays * td;
  to.dt_max = td / 3;

  g_allocations = 0;
  g_counting = true;
  const Waveform w = run_transient(engine, to);
  g_counting = false;

  const EngineStats& st = engine.stats();
  const long long attempts = st.transient_steps + st.transient_rejects_lte +
                             st.transient_rejects_newton;
  std::printf("tstop %g td: allocations %lld, accepted steps %lld, step "
              "attempts %lld, full factorisations %lld\n",
              tstop_delays, g_allocations.load(), st.transient_steps,
              attempts, st.full_factors);
  return {g_allocations.load(), st, w.size()};
}

TEST(TransientAllocations, AtMostOnePerAcceptedStep) {
  const TransientRun run = run_pulse_transient(12);
  ASSERT_GT(run.stats.transient_steps, 50);
  EXPECT_EQ(static_cast<long long>(run.samples),
            run.stats.transient_steps + 1);
  EXPECT_LE(run.allocations, run.stats.transient_steps + kSetupAllocations);
}

TEST(TransientAllocations, DoNotGrowWithTheStepCount) {
  const TransientRun short_run = run_pulse_transient(12);
  const TransientRun long_run = run_pulse_transient(48);
  ASSERT_GT(long_run.stats.transient_steps,
            2 * short_run.stats.transient_steps);
  EXPECT_LE(short_run.allocations, kRunAllocations);
  EXPECT_LE(long_run.allocations, kRunAllocations);
}

}  // namespace
}  // namespace sscl::spice
