#include "spice/ac.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "spice/elements.hpp"
#include "spice/noise.hpp"
#include "util/units.hpp"

namespace sscl::spice {
namespace {

// Single-pole RC low-pass: gain and -3dB point.
TEST(Ac, RcLowPass) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("V1", in, kGround, SourceSpec::dc(0.0).with_ac(1.0));
  const double r = 1e3, cap = 1e-9;
  c.add<Resistor>("R1", in, out, r);
  c.add<Capacitor>("C1", out, kGround, cap);

  Engine engine(c);
  const double f_pole = 1.0 / (2 * M_PI * r * cap);  // ~159 kHz
  AcResult res = run_ac_decade(engine, f_pole / 1000, f_pole * 1000, 20);

  EXPECT_NEAR(res.low_frequency_gain(out), 1.0, 1e-6);
  EXPECT_NEAR(res.bandwidth_3db(out), f_pole, f_pole * 0.05);

  // At 10x the pole the slope should be -20 dB/dec: |H| ~ f_pole/f.
  const auto freqs = res.frequencies();
  const auto mags = res.magnitude(out);
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    if (freqs[i] > 20 * f_pole) {
      EXPECT_NEAR(mags[i], f_pole / freqs[i], 0.01 * f_pole / freqs[i]);
    }
  }
}

TEST(Ac, RcPhaseAtPole) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("V1", in, kGround, SourceSpec::dc(0.0).with_ac(1.0));
  c.add<Resistor>("R1", in, out, 1e3);
  c.add<Capacitor>("C1", out, kGround, 1e-9);
  Engine engine(c);
  const double f_pole = 1.0 / (2 * M_PI * 1e-6);
  AcResult res = run_ac(engine, {f_pole});
  EXPECT_NEAR(res.phase_deg(out)[0], -45.0, 0.5);
  EXPECT_NEAR(res.magnitude(out)[0], 1.0 / std::sqrt(2.0), 1e-3);
}

// RLC series resonance: current peaks at f0, voltage across R peaks.
TEST(Ac, RlcResonance) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId n1 = c.node("n1");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("V1", in, kGround, SourceSpec::dc(0.0).with_ac(1.0));
  c.add<Inductor>("L1", in, n1, 1e-3);
  c.add<Capacitor>("C1", n1, out, 1e-9);
  c.add<Resistor>("R1", out, kGround, 50.0);
  Engine engine(c);
  const double f0 = 1.0 / (2 * M_PI * std::sqrt(1e-3 * 1e-9));  // ~159 kHz
  AcResult res = run_ac_decade(engine, f0 / 100, f0 * 100, 40);
  // Find the magnitude peak of v(out).
  const auto freqs = res.frequencies();
  const auto mags = res.magnitude(out);
  std::size_t imax = 0;
  for (std::size_t i = 1; i < mags.size(); ++i) {
    if (mags[i] > mags[imax]) imax = i;
  }
  EXPECT_NEAR(freqs[imax], f0, f0 * 0.1);
  EXPECT_NEAR(mags[imax], 1.0, 0.05);  // at resonance all of Vin across R
}

TEST(Ac, VcvsAmplifierGainFlat) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("V1", in, kGround, SourceSpec::dc(0.0).with_ac(1.0));
  c.add<Vcvs>("E1", out, kGround, in, kGround, 42.0);
  c.add<Resistor>("RL", out, kGround, 1e3);
  Engine engine(c);
  AcResult res = run_ac_decade(engine, 1.0, 1e6, 5);
  for (double m : res.magnitude(out)) EXPECT_NEAR(m, 42.0, 1e-9);
}

TEST(Ac, MagnitudeDbConversion) {
  Circuit c;
  const NodeId in = c.node("in");
  c.add<VoltageSource>("V1", in, kGround, SourceSpec::dc(0.0).with_ac(10.0));
  c.add<Resistor>("R1", in, kGround, 1e3);
  Engine engine(c);
  AcResult res = run_ac(engine, {1e3});
  EXPECT_NEAR(res.magnitude_db(in)[0], 20.0, 1e-6);
}

// A lossless LC tank at resonance with no gmin floor: the small-signal
// system is exactly singular at omega = 1 (L = 2, C = 0.5) while the DC
// operating point (the inductor a short) is well posed.
TEST(Ac, SingularSystemNamesTheFrequency) {
  Circuit c;
  const NodeId n = c.node("n");
  c.add<Inductor>("L1", n, kGround, 2.0);
  c.add<Capacitor>("C1", n, kGround, 0.5);
  SolverOptions options;
  options.gmin = 0.0;
  Engine engine(c, options);
  const double f = 1.0 / (2.0 * M_PI);
  ASSERT_EQ(2.0 * M_PI * f, 1.0);
  for (int analysis = 0; analysis < 2; ++analysis) {
    try {
      if (analysis == 0) {
        run_ac(engine, {f});
      } else {
        run_noise(engine, n, kGround, {f});
      }
      ADD_FAILURE() << "singular AC system solved";
    } catch (const ConvergenceError& e) {
      EXPECT_NE(std::string(e.what()).find(util::format_g17(f) + " Hz"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace sscl::spice
