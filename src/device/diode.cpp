#include "device/diode.hpp"

#include <cmath>

#include "util/constants.hpp"

namespace sscl::device {

using spice::AnalysisMode;

void junction_current(double v, double is, double nvt, double& i, double& g) {
  constexpr double kMaxExp = 80.0;
  const double u = v / nvt;
  if (u <= kMaxExp) {
    const double e = std::exp(u);
    i = is * (e - 1.0);
    g = is * e / nvt;
  } else {
    // Linear continuation beyond the clamp keeps i and g continuous.
    const double e = std::exp(kMaxExp);
    i = is * (e * (1.0 + (u - kMaxExp)) - 1.0);
    g = is * e / nvt;
  }
}

void junction_charge(double v, double cj0, double mj, double pb, double fc,
                     double& q, double& c) {
  if (cj0 <= 0) {
    q = 0;
    c = 0;
    return;
  }
  const double vk = fc * pb;
  if (v < vk) {
    const double arg = 1.0 - v / pb;
    const double s = std::pow(arg, -mj);
    c = cj0 * s;
    q = pb * cj0 * (1.0 - arg * s) / (1.0 - mj);
  } else {
    // Linearised beyond fc*pb, continuous in q and c.
    const double f1 = pb * cj0 * (1.0 - std::pow(1.0 - fc, 1.0 - mj)) / (1.0 - mj);
    const double f2 = std::pow(1.0 - fc, -(1.0 + mj));
    const double f3 = 1.0 - fc * (1.0 + mj);
    c = cj0 * f2 * (f3 + mj * v / pb);
    q = f1 + cj0 * f2 * (f3 * (v - vk) + 0.5 * mj * (v * v - vk * vk) / pb);
  }
}

double pnjlim(double vnew, double vold, double nvt, double vcrit,
              bool* limited) {
  if (vnew > vcrit && std::fabs(vnew - vold) > nvt + nvt) {
    if (vold > 0) {
      const double arg = 1.0 + (vnew - vold) / nvt;
      if (arg > 0) {
        vnew = vold + nvt * std::log(arg);
      } else {
        vnew = vcrit;
      }
    } else {
      vnew = nvt * std::log(vnew / nvt);
    }
    if (limited) *limited = true;
  }
  return vnew;
}

Diode::Diode(std::string name, spice::NodeId anode, spice::NodeId cathode,
             DiodeParams params, double area, double temperatureK)
    : Device(std::move(name)),
      anode_(anode),
      cathode_(cathode),
      params_(params),
      area_(area),
      ut_(params.n * util::thermal_voltage(temperatureK)) {
  const double is_eff = params_.is * area_;
  vcrit_ = ut_ * std::log(ut_ / (std::sqrt(2.0) * std::max(is_eff, 1e-300)));
}

void Diode::setup(spice::SetupContext& ctx) { state_ = ctx.alloc_state(2); }

void Diode::reserve(spice::PatternContext& ctx) {
  np_ = ctx.nonlinear_current(anode_, cathode_);
}

void Diode::load(spice::LoadContext& ctx) {
  const double v_raw = ctx.v(anode_) - ctx.v(cathode_);
  const bool init = ctx.mode() == AnalysisMode::kInitState;

  // Bypass: if the junction voltage moved less than the Newton tolerance
  // since the last full evaluation, reuse the cached i/g/q/c (and skip
  // pnjlim, whose only job is steering large steps).
  const bool bypass = !init && cache_valid_ &&
                      ctx.within_bypass_tol(v_raw, v_raw_cache_);
  if (bypass) {
    ctx.note_bypass();
  } else {
    ctx.note_eval();
    double v = v_raw;
    if (!init) {
      bool limited = false;
      v = pnjlim(v, v_last_, ut_, vcrit_, &limited);
      if (limited) ctx.set_not_converged();
      v_last_ = v;
    }
    const double is_eff = params_.is * area_;
    const double cj_eff = params_.cj0 * area_;
    double i = 0, g = 0;
    junction_current(v, is_eff, ut_, i, g);
    double q = 0, c = 0;
    junction_charge(v, cj_eff, params_.mj, params_.pb, params_.fc, q, c);
    last_i_ = i;
    last_g_ = g;
    last_c_ = c;
    last_q_ = q;
    // The kInitState evaluation skips limiting, so only non-init
    // evaluations seed the bypass cache.
    v_raw_cache_ = v_raw;
    cache_valid_ = !init;
  }

  switch (ctx.mode()) {
    case AnalysisMode::kDcOp:
      ctx.stamp_nonlinear_current(np_, last_i_, last_g_, v_last_);
      return;
    case AnalysisMode::kInitState:
      ctx.set_state(state_, last_q_);
      ctx.set_state(state_ + 1, 0.0);
      return;
    case AnalysisMode::kTransient: {
      // The companion current is re-integrated every load: the previous
      // state and a0 change per timestep even when the charge is cached.
      const double ic = ctx.integrate_charge(state_, last_q_);
      const double geq = ctx.integ_a0() * last_c_;
      ctx.stamp_nonlinear_current(np_, last_i_ + ic, last_g_ + geq, v_last_);
      return;
    }
  }
}

void Diode::load_ac(spice::AcContext& ctx) const {
  ctx.stamp_admittance(np_.g, {last_g_, ctx.omega() * last_c_});
}

void Diode::add_noise(spice::NoiseContext& ctx) const {
  // Shot noise of the junction current: S_i = 2 q |I|.
  constexpr double kQ = 1.602176634e-19;
  ctx.add(anode_, cathode_, 2.0 * kQ * std::fabs(last_i_),
          "shot(" + name() + ")");
}

bool Diode::describe(spice::DeviceInfo& info) const {
  info.kind = "diode";
  info.terminals = {{"anode", anode_}, {"cathode", cathode_}};
  info.edges = {{anode_, cathode_, spice::DcCoupling::kConductive, 0.0}};
  return true;
}

}  // namespace sscl::device
