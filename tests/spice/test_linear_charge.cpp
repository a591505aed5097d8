/// \file test_linear_charge.cpp
/// The engine's linear charges (capacitors and MOSFET gate capacitances:
/// companions stamped into the per-solve baseline, state written once
/// from the converged solution) against closed-form answers: a constant
/// current charging a capacitor, an RC step response and a floating
/// capacitor in a capacitive divider.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "spice/elements.hpp"
#include "spice/engine.hpp"
#include "spice/transient.hpp"

namespace sscl::spice {
namespace {

/// A current pulse of I into a grounded capacitor, whose only other DC
/// path is the gmin floor (hence lint off). The edges last ~2 fs and
/// steps land on their breakpoints, so each edge is one step that sees
/// the current at its end: both integration rules then integrate the
/// current exactly, and the capacitor voltage is I/C times the time the
/// current has been on. The pulse times are powers of two, so the edge
/// ends are exact and the source reads exactly I and 0 there.
void expect_linear_charging(IntegrationMethod method) {
  const double i = 1e-6, cap = 1e-9;
  const double delay = std::ldexp(1.0, -20);  // ~0.95 us
  const double edge = std::ldexp(1.0, -49);   // ~1.8 fs
  const double width = std::ldexp(1.0, -18);  // ~3.8 us
  Circuit c;
  const NodeId n = c.node("n");
  c.add<CurrentSource>(
      "i1", kGround, n, SourceSpec::pulse(0.0, i, delay, edge, edge, width, 0.0));
  c.add<Capacitor>("c1", n, kGround, cap);
  SolverOptions so;
  so.lint = false;
  Engine engine(c, so);
  TransientOptions to;
  to.tstop = 8e-6;
  to.dt_max = 0.1e-6;
  to.method = method;
  const Waveform w = run_transient(engine, to);

  ASSERT_GT(w.size(), 50u);
  for (std::size_t k = 0; k < w.size(); ++k) {
    const double t = w.time(k);
    const double on = std::clamp(t - delay, 0.0, edge + width);
    const double expected = i * on / cap;
    EXPECT_NEAR(w.value(n, k), expected, 1e-9 * std::fabs(expected))
        << "t = " << t;
  }
  const double v_end = i * (edge + width) / cap;
  EXPECT_NEAR(w.final_value(n), v_end, 1e-9 * v_end);
}

TEST(LinearCharge, DcCurrentChargesLinearlyTrapezoidal) {
  // Trapezoidal steps, with backward-Euler steps after t = 0 and after
  // each of the four edge breakpoints.
  expect_linear_charging(IntegrationMethod::kTrapezoidal);
}

TEST(LinearCharge, DcCurrentChargesLinearlyBackwardEuler) {
  expect_linear_charging(IntegrationMethod::kBackwardEuler);
}

TEST(LinearCharge, RcStepResponseMatchesExponential) {
  // A step of V through R into C at t0: V (1 - e^(-(t - t0)/RC)) at
  // every accepted point, within 1e-4 V. The step controller's error
  // estimate bounds the deviation; the worst point is about 1e-5 V off.
  const double v = 1.0, r = 1e4, cap = 1e-10, t0 = 0.5e-6;  // RC = 1 us
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("v1", in, kGround,
                       SourceSpec::pulse(0.0, v, t0, 0.0, 0.0, 1.0, 0.0));
  c.add<Resistor>("r1", in, out, r);
  c.add<Capacitor>("c1", out, kGround, cap);
  Engine engine(c);
  TransientOptions to;
  to.tstop = 6e-6;
  to.dt_max = 20e-9;
  const Waveform w = run_transient(engine, to);

  ASSERT_GT(w.size(), 100u);
  double worst = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    const double t = w.time(k);
    const double expected =
        t <= t0 ? 0.0 : v * (1.0 - std::exp(-(t - t0) / (r * cap)));
    worst = std::max(worst, std::fabs(w.value(out, k) - expected));
  }
  EXPECT_LT(worst, 1e-4);
}

TEST(LinearCharge, FloatingCapacitorDividesAPulse) {
  // C1 floats between the driven node and mid; C2 and a 1 TOhm DC path
  // tie mid to ground. Across the edge the charge on C1 equals the
  // charge on C2, so v_mid = V C1 / (C1 + C2); the resistor's droop over
  // the run stays below 1e-7 V (R (C1 + C2) = 5 s).
  const double v = 1.0, c1 = 2e-12, c2 = 3e-12;
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.add<VoltageSource>(
      "v1", in, kGround, SourceSpec::pulse(0.0, v, 0.5e-6, 10e-9, 10e-9, 1.0, 0.0));
  c.add<Capacitor>("c1", in, mid, c1);
  c.add<Capacitor>("c2", mid, kGround, c2);
  c.add<Resistor>("r1", mid, kGround, 1e12);
  Engine engine(c);
  TransientOptions to;
  to.tstop = 1.5e-6;
  to.dt_max = 5e-9;
  const Waveform w = run_transient(engine, to);

  ASSERT_GT(w.size(), 100u);
  int on_edge = 0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    const double vin = w.value(in, k);
    if (vin > 0.0 && vin < v) ++on_edge;
    EXPECT_NEAR(w.value(mid, k), vin * c1 / (c1 + c2), 1e-6 * v)
        << "t = " << w.time(k);
  }
  EXPECT_GT(on_edge, 0) << "no accepted point on the edge";
  EXPECT_NEAR(w.final_value(mid), v * c1 / (c1 + c2), 1e-6 * v);
}

}  // namespace
}  // namespace sscl::spice
