#include "device/ekv.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/constants.hpp"

namespace sscl::device {
namespace {

const Process kProc = Process::c180();
const MosGeometry kGeo{2e-6, 1e-6, 0, 0};
const MosMismatch kNoMm;
constexpr double kT = 300.15;

TEST(EkvF, AsymptoticBehaviour) {
  // Weak inversion: F(v) ~ e^v (asymptotically as v -> -inf).
  for (double v : {-30.0, -25.0, -20.0}) {
    EXPECT_NEAR(ekv_f(v) / std::exp(v), 1.0, 1e-3) << v;
  }
  // Strong inversion: F(v) ~ (v/2)^2.
  for (double v : {40.0, 100.0, 500.0}) {
    EXPECT_NEAR(ekv_f(v) / (v * v / 4.0), 1.0, 0.15) << v;
  }
  // Continuity across the overflow guard at u = 40 (v = 80).
  EXPECT_NEAR(ekv_f(79.9999), ekv_f(80.0001), 1e-2);
}

TEST(EkvF, DerivativeMatchesFiniteDifference) {
  for (double v : {-25.0, -5.0, -1.0, 0.0, 1.0, 5.0, 30.0, 90.0}) {
    const double h = 1e-6;
    const double fd = (ekv_f(v + h) - ekv_f(v - h)) / (2 * h);
    EXPECT_NEAR(ekv_f_derivative(v), fd, std::max(1e-9, 1e-6 * std::fabs(fd)))
        << "v=" << v;
  }
}

TEST(Ekv, FAndDerivativeShareOneLog) {
  // Bit-equal to the two single-output functions on both sides of the
  // asymptote switches at u = v/2 = -40 and +40 and between them.
  const auto check = [](double v) {
    double f = 0.0, df = 0.0;
    ekv_f_and_derivative(v, f, df);
    EXPECT_EQ(f, ekv_f(v)) << "v=" << v;
    EXPECT_EQ(df, ekv_f_derivative(v)) << "v=" << v;
  };
  for (int k = 0; k <= 4000; ++k) check(-200.0 + 0.1 * k + 1e-3 * (k % 7));
  for (double v : {-1400.0, -80.0, std::nextafter(-80.0, 0.0),
                   std::nextafter(-80.0, -100.0), 0.0, -0.0,
                   std::nextafter(80.0, 0.0), 80.0,
                   std::nextafter(80.0, 100.0), 1400.0}) {
    check(v);
  }
}

TEST(Ekv, SubthresholdExponentialSlope) {
  // In weak inversion, ID multiplies by 10 every n*UT*ln(10) of VGS.
  const double swing = subthreshold_swing(kProc.nmos, kT);
  const double vgs0 = 0.05;  // deep weak inversion, far below VT = 0.45
  const EkvResult r1 = ekv_evaluate(kProc.nmos, kGeo, kNoMm, vgs0, 0.5, 0, 0, kT);
  const EkvResult r2 =
      ekv_evaluate(kProc.nmos, kGeo, kNoMm, vgs0 + swing, 0.5, 0, 0, kT);
  EXPECT_NEAR(r2.id / r1.id, 10.0, 0.15);
}

TEST(Ekv, SaturationCurrentIndependentOfVds) {
  // For VDS >> 4UT the reverse term vanishes (before CLM).
  const EkvResult ra = ekv_evaluate(kProc.nmos, kGeo, kNoMm, 0.3, 0.3, 0, 0, kT);
  const EkvResult rb = ekv_evaluate(kProc.nmos, kGeo, kNoMm, 0.3, 0.6, 0, 0, kT);
  // Only lambda contributes: ratio = (1+lambda*0.6)/(1+lambda*0.3).
  const double expected =
      (1 + kProc.nmos.lambda * 0.6) / (1 + kProc.nmos.lambda * 0.3);
  EXPECT_NEAR(rb.id / ra.id, expected, 1e-3);
}

TEST(Ekv, LinearRegionConductance) {
  // Tiny VDS: ID ~ VDS * gds(0), device acts as a resistor.
  const EkvResult r = ekv_evaluate(kProc.nmos, kGeo, kNoMm, 0.35, 1e-4, 0, 0, kT);
  EXPECT_NEAR(r.id / 1e-4, r.gds, r.gds * 0.02);
}

TEST(Ekv, CurrentVanishesAtZeroVds) {
  const EkvResult r = ekv_evaluate(kProc.nmos, kGeo, kNoMm, 0.4, 0.0, 0.0, 0, kT);
  EXPECT_NEAR(r.id, 0.0, 1e-18);
}

TEST(Ekv, SymmetryUnderSourceDrainExchange) {
  const EkvResult fwd = ekv_evaluate(kProc.nmos, kGeo, kNoMm, 0.4, 0.2, 0.05, 0, kT);
  const EkvResult rev = ekv_evaluate(kProc.nmos, kGeo, kNoMm, 0.4, 0.05, 0.2, 0, kT);
  EXPECT_NEAR(fwd.id, -rev.id, std::fabs(fwd.id) * 0.02);
}

TEST(Ekv, PmosMirrorsNmos) {
  // PMOS with reflected voltages should conduct the mirrored current.
  MosParams pmos = kProc.nmos;  // same parameters, flipped type
  pmos.is_nmos = false;
  const EkvResult n = ekv_evaluate(kProc.nmos, kGeo, kNoMm, 0.4, 0.3, 0, 0, kT);
  const EkvResult p = ekv_evaluate(pmos, kGeo, kNoMm, -0.4, -0.3, 0, 0, kT);
  EXPECT_NEAR(p.id, -n.id, std::fabs(n.id) * 1e-9);
}

TEST(Ekv, PartialDerivativesMatchFiniteDifference) {
  const double vg = 0.38, vd = 0.25, vs = 0.03, vb = 0.0;
  const double h = 1e-7;
  const EkvResult r = ekv_evaluate(kProc.nmos, kGeo, kNoMm, vg, vd, vs, vb, kT);

  auto id_at = [&](double g, double d, double s, double b) {
    return ekv_evaluate(kProc.nmos, kGeo, kNoMm, g, d, s, b, kT).id;
  };
  const double gm_fd = (id_at(vg + h, vd, vs, vb) - id_at(vg - h, vd, vs, vb)) / (2 * h);
  const double gds_fd = (id_at(vg, vd + h, vs, vb) - id_at(vg, vd - h, vs, vb)) / (2 * h);
  const double gms_fd = -(id_at(vg, vd, vs + h, vb) - id_at(vg, vd, vs - h, vb)) / (2 * h);
  const double gmb_fd = (id_at(vg, vd, vs, vb + h) - id_at(vg, vd, vs, vb - h)) / (2 * h);

  EXPECT_NEAR(r.gm, gm_fd, std::fabs(gm_fd) * 1e-4 + 1e-18);
  EXPECT_NEAR(r.gds, gds_fd, std::fabs(gds_fd) * 1e-4 + 1e-18);
  EXPECT_NEAR(r.gms, gms_fd, std::fabs(gms_fd) * 1e-4 + 1e-18);
  EXPECT_NEAR(r.gmb, gmb_fd, std::fabs(gmb_fd) * 1e-4 + 1e-18);
}

TEST(Ekv, PmosPartialDerivativesMatchFiniteDifference) {
  const double vg = 0.6, vd = 0.7, vs = 1.0, vb = 1.0;  // PMOS conducting
  const double h = 1e-7;
  const EkvResult r = ekv_evaluate(kProc.pmos, kGeo, kNoMm, vg, vd, vs, vb, kT);
  auto id_at = [&](double g, double d, double s, double b) {
    return ekv_evaluate(kProc.pmos, kGeo, kNoMm, g, d, s, b, kT).id;
  };
  const double gm_fd = (id_at(vg + h, vd, vs, vb) - id_at(vg - h, vd, vs, vb)) / (2 * h);
  const double gds_fd = (id_at(vg, vd + h, vs, vb) - id_at(vg, vd - h, vs, vb)) / (2 * h);
  EXPECT_NEAR(r.gm, gm_fd, std::fabs(gm_fd) * 1e-4 + 1e-18);
  EXPECT_NEAR(r.gds, gds_fd, std::fabs(gds_fd) * 1e-4 + 1e-18);
  EXPECT_LT(r.id, 0.0);  // conducting PMOS drain current is negative
}

TEST(Ekv, VtMismatchShiftsCurrent) {
  MosMismatch mm;
  mm.dvt = 0.026 * kProc.nmos.n;  // one n*UT upward shift
  const EkvResult base = ekv_evaluate(kProc.nmos, kGeo, kNoMm, 0.3, 0.4, 0, 0, kT);
  const EkvResult shifted = ekv_evaluate(kProc.nmos, kGeo, mm, 0.3, 0.4, 0, 0, kT);
  EXPECT_NEAR(shifted.id / base.id, std::exp(-1.0), 0.02);
}

TEST(Ekv, BetaMismatchScalesCurrent) {
  MosMismatch mm;
  mm.dbeta_rel = 0.05;
  const EkvResult base = ekv_evaluate(kProc.nmos, kGeo, kNoMm, 0.3, 0.4, 0, 0, kT);
  const EkvResult scaled = ekv_evaluate(kProc.nmos, kGeo, mm, 0.3, 0.4, 0, 0, kT);
  EXPECT_NEAR(scaled.id / base.id, 1.05, 1e-6);
}

TEST(Ekv, VgsForCurrentRoundTrip) {
  for (double target : {1e-12, 1e-10, 1e-9, 1e-7}) {
    const double vgs =
        ekv_vgs_for_current(kProc.nmos, kGeo, target, 0.5, kT);
    const EkvResult r = ekv_evaluate(kProc.nmos, kGeo, kNoMm, vgs, 0.5, 0, 0, kT);
    EXPECT_NEAR(r.id / target, 1.0, 1e-4) << target;
  }
}

TEST(Ekv, TemperatureRaisesSubthresholdCurrent) {
  // Same VGS below threshold conducts more at higher T (UT grows and the
  // normalised overdrive shrinks in magnitude).
  const EkvResult cold =
      ekv_evaluate(kProc.nmos, kGeo, kNoMm, 0.25, 0.4, 0, 0, 273.15);
  const EkvResult hot =
      ekv_evaluate(kProc.nmos, kGeo, kNoMm, 0.25, 0.4, 0, 0, 360.15);
  EXPECT_GT(hot.id, cold.id * 3);
}

TEST(Ekv, SpecificCurrentScalesWithGeometry) {
  MosGeometry wide{8e-6, 1e-6, 0, 0};
  const EkvResult narrow = ekv_evaluate(kProc.nmos, kGeo, kNoMm, 0.3, 0.4, 0, 0, kT);
  const EkvResult big = ekv_evaluate(kProc.nmos, wide, kNoMm, 0.3, 0.4, 0, 0, kT);
  EXPECT_NEAR(big.id / narrow.id, 4.0, 1e-6);
  EXPECT_NEAR(big.ispec / narrow.ispec, 4.0, 1e-9);
}

}  // namespace
}  // namespace sscl::device
