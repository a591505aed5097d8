#pragma once

/// \file ekv.hpp
/// Core evaluation of the simplified EKV MOS model: drain current and
/// all small-signal partial derivatives, valid from deep weak inversion
/// through strong inversion with a single smooth expression.

#include <cmath>

#include "device/mos_params.hpp"
#include "util/interval.hpp"

namespace sscl::device {

/// Result of one EKV evaluation.
///
/// Sign convention: `id` is the channel current flowing from the drain
/// terminal to the source terminal through the device (positive for a
/// conducting NMOS with VD > VS, negative for a conducting PMOS).
struct EkvResult {
  double id = 0.0;   ///< drain->source channel current [A]
  double gm = 0.0;   ///< d id / d vg [S]
  double gds = 0.0;  ///< d id / d vd [S]
  double gms = 0.0;  ///< -d id / d vs [S] (positive for a forward device)
  double gmb = 0.0;  ///< d id / d vb [S]
  double i_f = 0.0;  ///< normalised forward current (inversion level)
  double i_r = 0.0;  ///< normalised reverse current
  double ispec = 0.0;  ///< specific current 2 n beta UT^2 [A]
};

/// The EKV interpolation function F(v) = ln^2(1 + exp(v/2)) and its
/// derivative. Exponential for v << 0 (weak inversion), quadratic for
/// v >> 0 (strong inversion); overflow-free for all v.
double ekv_f(double v);
double ekv_f_derivative(double v);

/// F(v) and dF/dv from one ln(1 + e^u), u = v/2: bit-identical to
/// ekv_f(v) and ekv_f_derivative(v), with the logarithm computed once.
inline void ekv_f_and_derivative(double v, double& f, double& df) {
  const double u = 0.5 * v;
  // The asymptotes beyond |u| = 40 keep full double accuracy (e^-40 is
  // below epsilon) and avoid overflow.
  if (u > 40.0) {
    f = u * u;
    df = u;
    return;
  }
  const double e = std::exp(u);
  const double l = std::log1p(e);
  // dF/dv = l * sigmoid(u) where sigmoid = e^u/(1+e^u).
  const double sig = u < -40.0 ? e : 1.0 / (1.0 + std::exp(-u));
  f = l * l;
  df = l * sig;
}

/// The bias-independent constants of one device's evaluations, fixed
/// until its mismatch draw changes.
struct EkvCard {
  double ut = 0.0;     ///< thermal voltage [V]
  double sign = 1.0;   ///< +1 NMOS, -1 PMOS (the reflection)
  double vt = 0.0;     ///< threshold voltage, mismatch folded [V]
  double ispec = 0.0;  ///< specific current 2 n beta UT^2 [A]
};

/// The card of a device with thermal voltage \p ut and the mismatch draw
/// (\p dvt, \p dbeta_rel).
inline EkvCard ekv_card(const MosParams& params, const MosGeometry& geometry,
                        double ut, double dvt, double dbeta_rel) {
  EkvCard card;
  card.ut = ut;
  card.sign = params.is_nmos ? 1.0 : -1.0;
  card.vt = params.vt0 + dvt;
  const double beta = params.kp * (1.0 + dbeta_rel) * geometry.w / geometry.l;
  card.ispec = 2.0 * params.n * beta * ut * ut;
  return card;
}

/// The model arithmetic of one bias point, shared by ekv_evaluate(),
/// Mosfet and the batched lanes (ekv_batch.cpp) so they cannot drift
/// apart. \p params supplies n and lambda, \p card the rest.
inline EkvResult ekv_evaluate_point(const MosParams& params,
                                    const EkvCard& card, double vg, double vd,
                                    double vs, double vb) {
  const double ut = card.ut;
  const double sign = card.sign;
  const double ispec = card.ispec;

  // Bulk-referenced voltages, reflected for PMOS so the NMOS equations
  // apply unchanged.
  const double ug = sign * (vg - vb);
  const double us = sign * (vs - vb);
  const double ud = sign * (vd - vb);

  const double vp = (ug - card.vt) / params.n;
  const double xf = (vp - us) / ut;
  const double xr = (vp - ud) / ut;

  double ff, dff, fr, dfr;
  ekv_f_and_derivative(xf, ff, dff);
  ekv_f_and_derivative(xr, fr, dfr);

  // Channel-length modulation, symmetric, smooth and BOUNDED in
  // (ud - us): 1 + lambda*vds for small vds, saturating at 1 +- 2*lambda
  // so it can never go negative and create unphysical negative
  // conductance far outside the normal operating region.
  const double dv = ud - us;
  const double th = std::tanh(0.5 * dv);
  const double clm = 1.0 + params.lambda * 2.0 * th;
  const double dclm = params.lambda * (1.0 - th * th);  // d clm / d dv

  const double i_core = ispec * (ff - fr);
  const double i = i_core * clm;

  // Partials in the reflected frame (per unit of ug / ud / us).
  const double p_g = ispec * clm * (dff - dfr) / (params.n * ut);
  const double p_d = ispec * clm * dfr / ut + i_core * dclm;
  const double p_s_neg = ispec * clm * dff / ut + i_core * dclm;

  EkvResult out;
  // Reflection: both the current and the voltages flip for PMOS, so the
  // drain->source terminal current is sign * i, and each terminal
  // partial d(sign*i)/d(v) = sign * p * sign = p.
  out.id = sign * i;
  out.gm = p_g;
  out.gds = p_d;
  out.gms = p_s_neg;
  out.gmb = -(p_g - p_s_neg + p_d);
  out.i_f = ff;
  out.i_r = fr;
  out.ispec = ispec;
  return out;
}

/// Evaluate the model. Terminal voltages are absolute node voltages;
/// PMOS devices are handled internally by sign reflection.
EkvResult ekv_evaluate(const MosParams& params, const MosGeometry& geometry,
                       const MosMismatch& mismatch, double vg, double vd,
                       double vs, double vb, double temperatureK);

/// Gate-source voltage required to conduct \p id in saturation at the
/// given inversion conditions (VS = VB). Used by bias planning: in weak
/// inversion this is VT0 + n*UT*ln(id/ispec) (approximately). Solved by
/// bisection on the full model, so it is exact in all regions.
double ekv_vgs_for_current(const MosParams& params, const MosGeometry& geometry,
                           double id, double vds, double temperatureK);

/// Convenience: the weak-inversion slope n*UT*ln(10) in volts/decade.
double subthreshold_swing(const MosParams& params, double temperatureK);

// ---- Interval (box) evaluation for static analysis -------------------

/// Conservative bounds of one EKV evaluation over a box of terminal
/// voltages and temperatures. Every field contains the corresponding
/// scalar ekv_evaluate() output for every point of the input box.
struct EkvIntervalResult {
  util::Interval id;     ///< drain->source terminal current [A]
  util::Interval i_f;    ///< forward inversion coefficient IC
  util::Interval i_r;    ///< reverse inversion coefficient
  util::Interval ispec;  ///< specific current 2 n beta UT^2 [A]
  util::Interval vdsat;  ///< saturation voltage UT (2 sqrt(IC) + 4) [V]
  util::Interval ut;     ///< thermal voltage over the temperature box [V]
  util::Interval vp;     ///< pinch-off voltage (reflected frame) [V]
};

/// Evaluate the EKV model over a box. \p params is the model card valid
/// at \p cardTemperatureK (mismatch already folded by the caller); the
/// temperature box \p tK is handled *inside* by mirroring the
/// Process::at_temperature dependences (VT drops 1 mV/K, KP scales as
/// (T/Tcard)^-1.5, UT = kT/q), so the result bounds ekv_evaluate() of
/// the re-derived card at every temperature in the box.
/// Inclusion-isotone: a nested input box yields a nested result.
EkvIntervalResult ekv_evaluate_interval(
    const MosParams& params, const MosGeometry& geometry,
    const util::Interval& vg, const util::Interval& vd,
    const util::Interval& vs, const util::Interval& vb,
    const util::Interval& tK, double cardTemperatureK);

/// The temperature-box part of an interval evaluation: the interval
/// card of one device over \p tK, derived once per analysis instead of
/// once per evaluation (two std::pow calls each).
struct EkvIntervalCard {
  util::Interval ut;     ///< thermal voltage over the box [V]
  util::Interval vt;     ///< threshold voltage over the box [V]
  util::Interval ispec;  ///< specific current over the box [A]
  double n = 1.0;        ///< slope factor
  double lambda = 0.0;   ///< channel-length modulation [1/V]
  double sign = 1.0;     ///< +1 NMOS, -1 PMOS
};

/// The card of \p params (valid at \p cardTemperatureK) over the box
/// \p tK, mirroring the Process::at_temperature dependences.
EkvIntervalCard ekv_interval_card(const MosParams& params,
                                  const MosGeometry& geometry,
                                  const util::Interval& tK,
                                  double cardTemperatureK);

/// The last input and image of each of the three monotone maps of an
/// interval evaluation: F at the forward and at the reverse argument,
/// and the CLM tanh. A map whose input interval is bitwise the last one
/// returns the stored image instead of recomputing it, so results stay
/// bit-identical; a bisection that moves one terminal keeps the other
/// terms. Default state maps the empty interval to itself, which is
/// what the map computes there. `f_evals` counts the F endpoint
/// evaluations actually computed.
struct EkvIntervalMemo {
  struct Map {
    util::Interval in;
    util::Interval out;
  };
  Map ff, fr, th;
  long long f_evals = 0;
};

/// The rest of ekv_evaluate_interval_refs() given the card: the same
/// expressions in the same order, so the result is bit-identical to
/// it. Terms unchanged since the last call with \p memo are reused
/// (see EkvIntervalMemo); a fresh memo reuses nothing.
EkvIntervalResult ekv_evaluate_interval_card(
    const EkvIntervalCard& card, const util::Interval& ug,
    const util::Interval& ud, const util::Interval& us,
    const util::Interval& clm_dv, EkvIntervalMemo& memo);

/// Reference-frame variant: \p ug, \p ud, \p us are the bulk-referenced
/// terminal voltages *already reflected* into the NMOS frame (for PMOS,
/// ug = vb - vg and so on); \p clm_dv is the reflected vd - vs box the
/// CLM factor is evaluated over. Interval subtraction of two boxes of
/// the same net widens to nonzero (vd - vb != 0 even when drain and
/// bulk are the same node), so callers that know the netlist aliasing
/// compute the differences themselves — collapsing aliased terminals to
/// an exact zero — and enter here. ekv_evaluate_interval() is the
/// alias-oblivious wrapper over this function.
EkvIntervalResult ekv_evaluate_interval_refs(
    const MosParams& params, const MosGeometry& geometry,
    const util::Interval& ug, const util::Interval& ud,
    const util::Interval& us, const util::Interval& clm_dv,
    const util::Interval& tK, double cardTemperatureK);

}  // namespace sscl::device
