#include "device/ekv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/constants.hpp"
#include "util/numeric.hpp"

namespace sscl::device {

double ekv_f(double v) {
  const double u = 0.5 * v;
  // ln(1 + e^u): use the asymptote for large u to avoid overflow; the
  // switch point keeps full double accuracy (e^-40 is below epsilon).
  const double l = u > 40.0 ? u : std::log1p(std::exp(u));
  return l * l;
}

double ekv_f_derivative(double v) {
  const double u = 0.5 * v;
  const double l = u > 40.0 ? u : std::log1p(std::exp(u));
  // dF/dv = l * sigmoid(u) where sigmoid = e^u/(1+e^u).
  const double sig = u > 40.0 ? 1.0 : (u < -40.0 ? std::exp(u)
                                                 : 1.0 / (1.0 + std::exp(-u)));
  return l * sig;
}

EkvResult ekv_evaluate(const MosParams& params, const MosGeometry& geometry,
                       const MosMismatch& mismatch, double vg, double vd,
                       double vs, double vb, double temperatureK) {
  return ekv_evaluate_point(params, geometry,
                            util::thermal_voltage(temperatureK),
                            params.is_nmos ? 1.0 : -1.0, mismatch.dvt,
                            mismatch.dbeta_rel, vg, vd, vs, vb);
}

double ekv_vgs_for_current(const MosParams& params, const MosGeometry& geometry,
                           double id, double vds, double temperatureK) {
  if (id <= 0) throw std::invalid_argument("ekv_vgs_for_current: id <= 0");
  const MosMismatch no_mismatch;
  auto current_at = [&](double vgs) {
    // NMOS frame with source = bulk = 0.
    const EkvResult r = ekv_evaluate(params, geometry, no_mismatch, vgs, vds,
                                     0.0, 0.0, temperatureK);
    return std::fabs(r.id);
  };
  // Bracket: weak inversion lets VGS go far below VT for tiny currents.
  double lo = -1.5, hi = 3.0;
  const auto root = util::bisect(
      [&](double vgs) { return std::log(std::max(current_at(vgs), 1e-30)) -
                               std::log(id); },
      lo, hi, 1e-9);
  if (!root) {
    throw std::runtime_error("ekv_vgs_for_current: no bracket for requested id");
  }
  return *root;
}

double subthreshold_swing(const MosParams& params, double temperatureK) {
  return params.n * util::thermal_voltage(temperatureK) * std::log(10.0);
}

EkvIntervalResult ekv_evaluate_interval(
    const MosParams& params, const MosGeometry& geometry,
    const util::Interval& vg, const util::Interval& vd,
    const util::Interval& vs, const util::Interval& vb,
    const util::Interval& tK, double cardTemperatureK,
    const util::Interval* clm_dv_hint) {
  using util::Interval;
  if (vg.is_empty() || vd.is_empty() || vs.is_empty() || vb.is_empty() ||
      tK.is_empty()) {
    return EkvIntervalResult{};  // all-empty: the image of an empty box
  }
  const double sign = params.is_nmos ? 1.0 : -1.0;
  const Interval ug = (vg - vb) * sign;
  const Interval us = (vs - vb) * sign;
  const Interval ud = (vd - vb) * sign;
  const Interval dv = clm_dv_hint ? (*clm_dv_hint * sign) : (ud - us);
  return ekv_evaluate_interval_refs(params, geometry, ug, ud, us, dv, tK,
                                    cardTemperatureK);
}

EkvIntervalResult ekv_evaluate_interval_refs(
    const MosParams& params, const MosGeometry& geometry,
    const util::Interval& ug, const util::Interval& ud,
    const util::Interval& us, const util::Interval& clm_dv,
    const util::Interval& tK, double cardTemperatureK) {
  using util::Interval;
  EkvIntervalResult out;
  if (ug.is_empty() || ud.is_empty() || us.is_empty() || tK.is_empty()) {
    return out;  // all-empty: the image of an empty box
  }

  // Temperature dependences mirror Process::at_temperature so the
  // interval card brackets the scalar card re-derived at any T in the
  // box: VT falls 1 mV/K, KP scales (T/Tcard)^-1.5, UT = kT/q.
  const double tref = cardTemperatureK;
  const Interval ut =
      tK.map_increasing([](double t) { return util::thermal_voltage(t); });
  const Interval vt = tK.map_decreasing(
      [&](double t) { return params.vt0 - 1.0e-3 * (t - tref); });
  const Interval kp = tK.map_decreasing(
      [&](double t) { return params.kp * std::pow(t / tref, -1.5); });

  const double sign = params.is_nmos ? 1.0 : -1.0;

  const Interval beta = kp * (geometry.w / geometry.l);
  const Interval ispec = (beta * (2.0 * params.n)) * (ut * ut);

  const Interval vp = (ug - vt) * (1.0 / params.n);
  const Interval xf = (vp - us) / ut;
  const Interval xr = (vp - ud) / ut;
  const Interval ff = xf.map_increasing(ekv_f);
  const Interval fr = xr.map_increasing(ekv_f);

  const Interval th =
      clm_dv.map_increasing([](double v) { return std::tanh(0.5 * v); });
  const Interval clm = th * (2.0 * params.lambda) + 1.0;

  const Interval i = (ispec * (ff - fr)) * clm;

  out.id = i * sign;
  out.i_f = ff;
  out.i_r = fr;
  out.ispec = ispec;
  out.vdsat = ut * (util::interval_sqrt(ff) * 2.0 + 4.0);
  out.ut = ut;
  out.vp = vp;
  return out;
}

}  // namespace sscl::device
