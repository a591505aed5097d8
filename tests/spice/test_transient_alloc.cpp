/// \file test_transient_alloc.cpp
/// The transient step loop allocates nothing per step: Newton's iterate,
/// the predictor, the trial solution, the residual's row sums and a full
/// factorisation's scratch live in buffers kept across steps, and
/// Waveform::append() copies each sample into a block that holds many.
/// Nor does a solve read the clock while tracing is off: the phase times
/// are trace spans. This executable counts operator new calls
/// (support/counting_new.hpp) and interposes clock_gettime to count
/// clock reads.

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <ctime>

#include <gtest/gtest.h>

#include "spice/engine.hpp"
#include "spice/transient.hpp"
#include "stscl/fabric.hpp"
#include "support/counting_new.hpp"
#include "trace/trace.hpp"

namespace {
std::atomic<bool> g_counting_clock{false};
std::atomic<long long> g_clock_reads{0};
}  // namespace

// Every clock read of the program -- std::chrono's clocks and the trace
// timestamps included -- goes through glibc's clock_gettime; this
// definition takes its place and forwards to the system call.
extern "C" int clock_gettime(clockid_t clock, struct timespec* ts) {
  if (g_counting_clock.load(std::memory_order_relaxed)) {
    g_clock_reads.fetch_add(1, std::memory_order_relaxed);
  }
  return static_cast<int>(syscall(SYS_clock_gettime, clock, ts));
}

namespace sscl::spice {
namespace {

/// Allocations a whole run_transient() may make besides one per accepted
/// step: the DC operating point, the breakpoint list, the step loop's
/// buffers and the amortised growth of the waveform's two vectors and of
/// the LU factors. The 12 td run below makes 75-80 with four full
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

/// The two-buffer pulse circuit of
/// EngineGolden.BypassTransientMatchesBypassOffEngine; \p td receives
/// its gate delay.
void build_pulse_buffers(Circuit& c, double& td) {
  const device::Process proc = device::Process::c180();
  stscl::SclParams p;
  stscl::SclFabric fab(c, proc, p);
  stscl::DiffSignal in = fab.signal("in");
  const stscl::SclModel model;
  td = model.delay(p.iss);
  fab.drive_pulse(in, 4 * td, td / 4, 40 * td);
  fab.buffer(fab.buffer(in, "b0"), "b1");
}

TransientOptions pulse_options(double td, double tstop_delays) {
  TransientOptions to;
  to.tstop = tstop_delays * td;
  to.dt_max = td / 3;
  return to;
}

/// The pulse transient run to \p tstop_delays gate delays; only
/// run_transient() is counted.
TransientRun run_pulse_transient(double tstop_delays) {
  Circuit c;
  double td = 0.0;
  build_pulse_buffers(c, td);
  Engine engine(c);
  const TransientOptions to = pulse_options(td, tstop_delays);

  test_support::start_counting_allocations();
  const Waveform w = run_transient(engine, to);
  const long long allocations = test_support::stop_counting_allocations().calls;

  const EngineStats& st = engine.stats();
  const long long attempts = st.transient_steps + st.transient_rejects_lte +
                             st.transient_rejects_newton;
  std::printf("tstop %g td: allocations %lld, accepted steps %lld, step "
              "attempts %lld, full factorisations %lld\n",
              tstop_delays, allocations, st.transient_steps, attempts,
              st.full_factors);
  return {allocations, st, w.size()};
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

// With tracing off, neither an operating point nor a transient reads the
// clock: the engine's phase times are trace spans, which read it only
// while tracing is on.
TEST(NewtonClockReads, NoneWhileTracingIsOff) {
  trace::disable();
  Circuit c;
  double td = 0.0;
  build_pulse_buffers(c, td);
  Engine engine(c);

  g_clock_reads = 0;
  g_counting_clock = true;
  engine.solve_op();
  const long long op_reads = g_clock_reads.load();
  const Waveform w = run_transient(engine, pulse_options(td, 12));
  g_counting_clock = false;

  std::printf("clock reads: %lld in solve_op, %lld in all; %lld Newton "
              "iterations, %lld accepted steps\n",
              op_reads, g_clock_reads.load(),
              engine.stats().newton_iterations,
              engine.stats().transient_steps);
  ASSERT_GT(engine.stats().transient_steps, 50);
  EXPECT_EQ(static_cast<long long>(w.size()),
            engine.stats().transient_steps + 1);
  EXPECT_EQ(op_reads, 0);
  EXPECT_EQ(g_clock_reads.load(), 0);
}

}  // namespace
}  // namespace sscl::spice
