#include "device/ekv.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
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
  return ekv_evaluate_point(
      params,
      ekv_card(params, geometry, util::thermal_voltage(temperatureK),
               mismatch.dvt, mismatch.dbeta_rel),
      vg, vd, vs, vb);
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
    const util::Interval& tK, double cardTemperatureK) {
  using util::Interval;
  if (vg.is_empty() || vd.is_empty() || vs.is_empty() || vb.is_empty() ||
      tK.is_empty()) {
    return EkvIntervalResult{};  // all-empty: the image of an empty box
  }
  const double sign = params.is_nmos ? 1.0 : -1.0;
  const Interval ug = (vg - vb) * sign;
  const Interval us = (vs - vb) * sign;
  const Interval ud = (vd - vb) * sign;
  return ekv_evaluate_interval_refs(params, geometry, ug, ud, us, ud - us,
                                    tK, cardTemperatureK);
}

EkvIntervalResult ekv_evaluate_interval_refs(
    const MosParams& params, const MosGeometry& geometry,
    const util::Interval& ug, const util::Interval& ud,
    const util::Interval& us, const util::Interval& clm_dv,
    const util::Interval& tK, double cardTemperatureK) {
  if (ug.is_empty() || ud.is_empty() || us.is_empty() || tK.is_empty()) {
    return EkvIntervalResult{};  // all-empty: the image of an empty box
  }
  EkvIntervalMemo fresh;
  return ekv_evaluate_interval_card(
      ekv_interval_card(params, geometry, tK, cardTemperatureK), ug, ud, us,
      clm_dv, fresh);
}

EkvIntervalCard ekv_interval_card(const MosParams& params,
                                  const MosGeometry& geometry,
                                  const util::Interval& tK,
                                  double cardTemperatureK) {
  using util::Interval;
  // Temperature dependences mirror Process::at_temperature so the
  // interval card brackets the scalar card re-derived at any T in the
  // box: VT falls 1 mV/K, KP scales (T/Tcard)^-1.5, UT = kT/q.
  const double tref = cardTemperatureK;
  EkvIntervalCard card;
  card.ut =
      tK.map_increasing([](double t) { return util::thermal_voltage(t); });
  card.vt = tK.map_decreasing(
      [&](double t) { return params.vt0 - 1.0e-3 * (t - tref); });
  const Interval kp = tK.map_decreasing(
      [&](double t) { return params.kp * std::pow(t / tref, -1.5); });
  const Interval beta = kp * (geometry.w / geometry.l);
  card.ispec = (beta * (2.0 * params.n)) * (card.ut * card.ut);
  card.n = params.n;
  card.lambda = params.lambda;
  card.sign = params.is_nmos ? 1.0 : -1.0;
  return card;
}

namespace {

/// Image of \p x under the increasing map \p f, taken from \p m when
/// \p x is bitwise its last input (f is a pure function, so the stored
/// image is exactly what f would return).
template <class F>
util::Interval memo_map(EkvIntervalMemo::Map& m, const util::Interval& x,
                        F&& f) {
  if (std::memcmp(&m.in, &x, sizeof x) != 0) {
    m.in = x;
    m.out = x.map_increasing(f);
  }
  return m.out;
}

}  // namespace

EkvIntervalResult ekv_evaluate_interval_card(const EkvIntervalCard& card,
                                             const util::Interval& ug,
                                             const util::Interval& ud,
                                             const util::Interval& us,
                                             const util::Interval& clm_dv,
                                             EkvIntervalMemo& memo) {
  using util::Interval;
  EkvIntervalResult out;
  if (ug.is_empty() || ud.is_empty() || us.is_empty() || card.ut.is_empty()) {
    return out;  // all-empty: the image of an empty box
  }
  const Interval& ut = card.ut;

  const Interval vp = (ug - card.vt) * (1.0 / card.n);
  const Interval xf = (vp - us) / ut;
  const Interval xr = (vp - ud) / ut;
  const auto f = [&memo](double v) {
    ++memo.f_evals;
    return ekv_f(v);
  };
  const Interval ff = memo_map(memo.ff, xf, f);
  const Interval fr = memo_map(memo.fr, xr, f);

  const Interval th = memo_map(memo.th, clm_dv,
                               [](double v) { return std::tanh(0.5 * v); });
  const Interval clm = th * (2.0 * card.lambda) + 1.0;

  const Interval i = (card.ispec * (ff - fr)) * clm;

  out.id = i * card.sign;
  out.i_f = ff;
  out.i_r = fr;
  out.ispec = card.ispec;
  out.vdsat = ut * (util::interval_sqrt(ff) * 2.0 + 4.0);
  out.ut = ut;
  out.vp = vp;
  return out;
}

}  // namespace sscl::device
