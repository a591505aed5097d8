#include "sta/crosscheck.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "digital/encoder.hpp"

namespace sscl::sta {
namespace {

// The analytic fmax tracks the event-simulated one to within 10% at
// bias currents spanning the paper's 1 nA – 100 nA subthreshold tuning
// range, for well over an order of magnitude less work. The sim-capture
// mode models the simulator's latch-commit semantics (tokens
// wave-pipeline through transparent latches), which is what makes
// sub-10% agreement possible.
class CrossCheckTest : public ::testing::TestWithParam<double> {};

TEST_P(CrossCheckTest, StaTracksEventSimWithin10Percent) {
  digital::Netlist nl;
  const digital::EncoderIo io = digital::build_fai_encoder(nl);
  const stscl::SclModel model;

  StaOptions opt;
  opt.mode = StaMode::kSimCapture;
  opt.input_arrival_frac = 0.05;  // the fmax testbench applies data there
  const FmaxCrossCheck xc =
      crosscheck_encoder_fmax(nl, io, model, GetParam(), opt);

  EXPECT_GT(xc.f_sim, 0.0);
  EXPECT_GT(xc.f_sta, 0.0);
  EXPECT_TRUE(xc.agrees(0.10))
      << "iss " << xc.iss << ": sta " << xc.f_sta << " Hz vs sim "
      << xc.f_sim << " Hz (ratio " << xc.ratio << ")";
  // The advantage in work, which machine load cannot move: events the
  // simulator evaluates against arcs the analysis relaxes (64.2x at each
  // bias point of the sweep). The wall-time ratio tracks it on a quiet
  // machine but read 6x under a loaded ctest -j4, so it is printed for
  // information only.
  std::printf("iss %g: sim %lld events vs sta %lld arcs (%.1fx); wall time "
              "sim %.4f s vs sta %.4f s (%.1fx)\n",
              xc.iss, xc.sim_events, xc.sta_arcs, xc.work_ratio,
              xc.sim_seconds, xc.sta_seconds, xc.speedup);
  EXPECT_GT(xc.work_ratio, 50.0)
      << "sim " << xc.sim_events << " events vs sta " << xc.sta_arcs
      << " arcs";
}

INSTANTIATE_TEST_SUITE_P(BiasSweep, CrossCheckTest,
                         ::testing::Values(1e-9, 1e-8, 1e-7));

TEST(CrossCheck, FmaxScalesLinearlyWithBias) {
  // td ~ 1/Iss, so both engines' fmax must scale ~linearly in Iss; check
  // the analytic side across a decade without re-running the simulator.
  digital::Netlist nl;
  digital::build_fai_encoder(nl);
  const stscl::SclModel model;
  StaOptions opt;
  opt.mode = StaMode::kSimCapture;
  opt.input_arrival_frac = 0.05;
  const double f1 = sta_fmax(nl, model, 1e-9, opt);
  const double f10 = sta_fmax(nl, model, 1e-8, opt);
  EXPECT_NEAR(f10 / f1, 10.0, 0.2);
}

}  // namespace
}  // namespace sscl::sta
