#include "device/mosfet.hpp"

#include <cmath>

#include "device/diode.hpp"
#include "device/ekv_batch.hpp"
#include "device/mismatch.hpp"
#include "spice/ensemble.hpp"
#include "util/constants.hpp"

namespace sscl::device {

using spice::AnalysisMode;
using spice::LoadContext;
using spice::NodeId;

Mosfet::Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source,
               NodeId bulk, MosParams params, MosGeometry geometry,
               double temperatureK, MosMismatch mismatch)
    : Device(std::move(name)),
      d_(drain),
      g_(gate),
      s_(source),
      b_(bulk),
      params_(params),
      geometry_(geometry),
      temperature_(temperatureK),
      mismatch_(mismatch) {
  // Weak-inversion gate capacitance estimates: overlap plus a fraction
  // of the channel capacitance to each diffusion, the rest to bulk.
  const double c_channel = params_.cox * geometry_.w * geometry_.l;
  const double c_overlap = params_.cov * geometry_.w;
  cgs_ = c_overlap + 0.25 * c_channel;
  cgd_ = c_overlap + 0.25 * c_channel;
  cgb_ = 0.3 * c_channel;

  card_ = make_card();
  has_junctions_ = geometry_.as > 0 || geometry_.ad > 0;
  jn_sign_ = params_.is_nmos ? 1.0 : -1.0;
  nvt_ = params_.nj * util::thermal_voltage(temperatureK);
  const double is_s = params_.js * geometry_.as;
  const double is_d = params_.js * geometry_.ad;
  vcrit_s_ = is_s > 0 ? nvt_ * std::log(nvt_ / (std::sqrt(2.0) * is_s)) : 1e9;
  vcrit_d_ = is_d > 0 ? nvt_ * std::log(nvt_ / (std::sqrt(2.0) * is_d)) : 1e9;
}

EkvCard Mosfet::make_card() const {
  return ekv_card(params_, geometry_, util::thermal_voltage(temperature_),
                  mismatch_.dvt, mismatch_.dbeta_rel);
}

void Mosfet::set_mismatch(const MosMismatch& mm) {
  mismatch_ = mm;
  card_ = make_card();
  cache_valid_ = false;  // cached evaluation used the old parameters
}

void Mosfet::setup(spice::SetupContext& ctx) { state_ = ctx.alloc_state(10); }

void Mosfet::reserve(spice::PatternContext& ctx) {
  // Channel Jacobian + Newton rhs.
  m_dg_ = ctx.nn(d_, g_);
  m_dd_ = ctx.nn(d_, d_);
  m_ds_ = ctx.nn(d_, s_);
  m_db_ = ctx.nn(d_, b_);
  m_sg_ = ctx.nn(s_, g_);
  m_sd_ = ctx.nn(s_, d_);
  m_ss_ = ctx.nn(s_, s_);
  m_sb_ = ctx.nn(s_, b_);
  r_d_ = ctx.rn(d_);
  r_s_ = ctx.rn(s_);
  // Bulk junctions (only when diffusion areas are given).
  if (geometry_.as > 0) {
    jp_s_ = jn_sign_ > 0 ? ctx.nonlinear_current(b_, s_)
                         : ctx.nonlinear_current(s_, b_);
  }
  if (geometry_.ad > 0) {
    jp_d_ = jn_sign_ > 0 ? ctx.nonlinear_current(b_, d_)
                         : ctx.nonlinear_current(d_, b_);
  }
  // Gate capacitances: linear charges, whose transient companions the
  // engine stamps and whose state it keeps.
  cp_gs_ = ctx.linear_charge(g_, s_, cgs_, state_, *this);
  cp_gd_ = ctx.linear_charge(g_, d_, cgd_, state_ + 2, *this);
  cp_gb_ = ctx.linear_charge(g_, b_, cgb_, state_ + 4, *this);
}

double Mosfet::gate_capacitance() const { return cgs_ + cgd_ + cgb_; }

void Mosfet::load(LoadContext& ctx) {
  const double vd = ctx.v(d_);
  const double vg = ctx.v(g_);
  const double vs = ctx.v(s_);
  const double vb = ctx.v(b_);
  const bool init = ctx.mode() == AnalysisMode::kInitState;

  // Bypass: if no terminal moved more than the Newton tolerance since
  // the last full evaluation, reuse the cached channel point and
  // junction quantities. Only the voltage-dependent model outputs are
  // cached; the junction charges' integrator companions are rebuilt
  // below on every load.
  const bool bypass = !init && cache_valid_ &&
                      ctx.within_bypass_tol(vd, vd_c_) &&
                      ctx.within_bypass_tol(vg, vg_c_) &&
                      ctx.within_bypass_tol(vs, vs_c_) &&
                      ctx.within_bypass_tol(vb, vb_c_);
  if (bypass) {
    ctx.note_bypass();
  } else {
    ctx.note_eval();
  }

  // ---- channel current -------------------------------------------------
  if (!bypass) {
    last_ = ekv_evaluate_point(params_, card_, vg, vd, vs, vb);
    ieq_c_ = last_.id - (last_.gm * vg + last_.gds * vd - last_.gms * vs +
                         last_.gmb * vb);
    vd_c_ = vd;
    vg_c_ = vg;
    vs_c_ = vs;
    vb_c_ = vb;
    // kInitState evaluations skip junction limiting, so they must not
    // seed the bypass cache.
    cache_valid_ = !init;
  }

  if (!init) {
    // Jacobian of the d->s current w.r.t. all four terminals.
    ctx.add_at(m_dg_, last_.gm);
    ctx.add_at(m_dd_, last_.gds);
    ctx.add_at(m_ds_, -last_.gms);
    ctx.add_at(m_db_, last_.gmb);
    ctx.add_at(m_sg_, -last_.gm);
    ctx.add_at(m_sd_, -last_.gds);
    ctx.add_at(m_ss_, last_.gms);
    ctx.add_at(m_sb_, -last_.gmb);
    ctx.add_rhs_at(r_d_, -ieq_c_);
    ctx.add_rhs_at(r_s_, ieq_c_);
  }

  // ---- source/drain junction diodes (bulk<->diffusion) ------------------
  // NMOS: p-bulk anode to n+ diffusion cathode; PMOS mirrored. Without
  // diffusion areas there is nothing to stamp, and the AC junction terms
  // keep their reset value 0.
  if (!has_junctions_) return;
  auto do_junction = [&](NodeId diff, double area,
                         const spice::NonlinearPattern& pat, double& v_last,
                         double vcrit, int state_base, JunctionCache& jc,
                         double& g_cache, double& c_cache) {
    if (area <= 0) {
      g_cache = 0;
      c_cache = 0;
      return;
    }
    if (!bypass) {
      const double is_eff = params_.js * area;
      const double cj_eff = params_.cj0 * area;
      double v = jn_sign_ * (vb - ctx.v(diff));
      if (!init) {
        bool limited = false;
        v = pnjlim(v, v_last, nvt_, vcrit, &limited);
        if (limited) ctx.set_not_converged();
        v_last = v;
      }
      junction_current(v, is_eff, nvt_, jc.ij, jc.gj);
      junction_charge(v, cj_eff, params_.mj, params_.pb, 0.5, jc.qj, jc.cj);
      const NodeId anode = jn_sign_ > 0 ? b_ : diff;
      const NodeId cathode = jn_sign_ > 0 ? diff : b_;
      jc.v_ak = ctx.v(anode) - ctx.v(cathode);
    }
    g_cache = jc.gj;
    c_cache = jc.cj;

    switch (ctx.mode()) {
      case AnalysisMode::kDcOp:
        ctx.stamp_nonlinear_current(pat, jc.ij, jc.gj, jc.v_ak);
        return;
      case AnalysisMode::kInitState:
        ctx.set_state(state_base, jc.qj);
        ctx.set_state(state_base + 1, 0.0);
        return;
      case AnalysisMode::kTransient: {
        const double ic = ctx.integrate_charge(state_base, jc.qj);
        const double geq = ctx.integ_a0() * jc.cj;
        ctx.stamp_nonlinear_current(pat, jc.ij + ic, jc.gj + geq, jc.v_ak);
        return;
      }
    }
  };
  do_junction(s_, geometry_.as, jp_s_, vjs_last_, vcrit_s_, state_ + 6, jc_s_,
              jgs_, cbs_);
  do_junction(d_, geometry_.ad, jp_d_, vjd_last_, vcrit_d_, state_ + 8, jc_d_,
              jgd_, cbd_);
}

bool Mosfet::perturb_sample(const util::Rng& stream, std::uint64_t ordinal) {
  set_mismatch(sample_mismatch(params_, geometry_, stream, ordinal));
  return true;
}

/// EnsembleChannel of one MOSFET: parameter and model-output lanes in
/// an EkvSoA, stamped through the slots the device reserved during the
/// worker engine's pattern pass. Nested in Mosfet for slot access; the
/// device object itself is never written.
class Mosfet::Channel final : public spice::EnsembleChannel {
 public:
  explicit Channel(const Mosfet& m) : m_(m) {}

  void sample_params(const util::Rng& base, std::uint64_t first_sample,
                     int count, std::uint64_t ordinal) override {
    soa_.resize(count);
    sample_mismatch_lanes(m_.params_, m_.geometry_, base, first_sample,
                          ordinal, count, soa_.dvt.data(),
                          soa_.dbeta_rel.data());
  }

  void evaluate(const std::vector<const double*>& xs,
                const std::vector<char>& active) override {
    const int count = soa_.lanes();
    for (int k = 0; k < count; ++k) {
      if (!active[k]) continue;
      const double* x = xs[k];
      soa_.vg[k] = volt(x, m_.g_);
      soa_.vd[k] = volt(x, m_.d_);
      soa_.vs[k] = volt(x, m_.s_);
      soa_.vb[k] = volt(x, m_.b_);
    }
    ekv_evaluate_batch(m_.params_, m_.geometry_, m_.temperature_, soa_,
                       active);
  }

  void stamp(spice::LoadContext& ctx, int k) const override {
    // Same slots, same order, same values as the !init branch of
    // Mosfet::load (channels are only built for junction-free
    // geometries, and the engine stamps the gate capacitances).
    ctx.add_at(m_.m_dg_, soa_.gm[k]);
    ctx.add_at(m_.m_dd_, soa_.gds[k]);
    ctx.add_at(m_.m_ds_, -soa_.gms[k]);
    ctx.add_at(m_.m_db_, soa_.gmb[k]);
    ctx.add_at(m_.m_sg_, -soa_.gm[k]);
    ctx.add_at(m_.m_sd_, -soa_.gds[k]);
    ctx.add_at(m_.m_ss_, soa_.gms[k]);
    ctx.add_at(m_.m_sb_, -soa_.gmb[k]);
    ctx.add_rhs_at(m_.r_d_, -soa_.ieq[k]);
    ctx.add_rhs_at(m_.r_s_, soa_.ieq[k]);
  }

 private:
  static double volt(const double* x, spice::NodeId node) {
    return node == spice::kGround ? 0.0 : x[node];
  }

  const Mosfet& m_;
  EkvSoA soa_;
};

std::unique_ptr<spice::EnsembleChannel> Mosfet::make_ensemble_channel() {
  if (has_junctions_) return nullptr;
  return std::make_unique<Channel>(*this);
}

void Mosfet::add_noise(spice::NoiseContext& ctx) const {
  // In weak inversion the channel noise is full shot noise of the
  // drain current: S_i = 2 q |ID| (equals 4kT*gm/2 via gm = I/(n UT),
  // the Vittoz result). Junction leakage shot noise is negligible at
  // the reverse biases used here but included for completeness.
  constexpr double kQ = 1.602176634e-19;
  ctx.add(d_, s_, 2.0 * kQ * std::fabs(last_.id), "channel(" + name() + ")");
}

void Mosfet::load_ac(spice::AcContext& ctx) const {
  ctx.add_at(m_dg_, last_.gm);
  ctx.add_at(m_dd_, last_.gds);
  ctx.add_at(m_ds_, -last_.gms);
  ctx.add_at(m_db_, last_.gmb);
  ctx.add_at(m_sg_, -last_.gm);
  ctx.add_at(m_sd_, -last_.gds);
  ctx.add_at(m_ss_, last_.gms);
  ctx.add_at(m_sb_, -last_.gmb);

  const double w = ctx.omega();
  ctx.stamp_admittance(cp_gs_.g, {0, w * cgs_});
  ctx.stamp_admittance(cp_gd_.g, {0, w * cgd_});
  ctx.stamp_admittance(cp_gb_.g, {0, w * cgb_});
  // Nonzero only with diffusion areas, which reserve the junction slots.
  if (jgs_ > 0 || cbs_ > 0) ctx.stamp_admittance(jp_s_.g, {jgs_, w * cbs_});
  if (jgd_ > 0 || cbd_ > 0) ctx.stamp_admittance(jp_d_.g, {jgd_, w * cbd_});
}

bool Mosfet::describe(spice::DeviceInfo& info) const {
  info.kind = "mosfet";
  info.terminals = {{"drain", d_}, {"gate", g_}, {"source", s_}, {"bulk", b_}};
  // The channel conducts at every bias in EKV (weak-inversion leakage),
  // and the bulk junctions conduct as diodes; the gate only couples
  // capacitively.
  info.edges = {
      {d_, s_, spice::DcCoupling::kConductive, 0.0},
      {b_, s_, spice::DcCoupling::kConductive, 0.0},
      {b_, d_, spice::DcCoupling::kConductive, 0.0},
      {g_, s_, spice::DcCoupling::kOpen, cgs_},
      {g_, d_, spice::DcCoupling::kOpen, cgd_},
  };
  info.is_mosfet = true;
  info.is_nmos = params_.is_nmos;
  info.ispec = card_.ispec;
  info.mos_d = d_;
  info.mos_g = g_;
  info.mos_s = s_;
  info.mos_b = b_;
  // DC model card as instantiated, mismatch folded, for the op-region
  // interval evaluator. mos_temp records the temperature the card (and
  // the folded vt0/kp) are valid at.
  info.mos_vt0 = params_.vt0 + mismatch_.dvt;
  info.mos_n = params_.n;
  info.mos_kp = params_.kp * (1.0 + mismatch_.dbeta_rel);
  info.mos_lambda = params_.lambda;
  info.mos_w = geometry_.w;
  info.mos_l = geometry_.l;
  info.mos_temp = temperature_;
  info.mos_ijs_s = params_.js * geometry_.as;
  info.mos_ijs_d = params_.js * geometry_.ad;
  info.mos_nj = params_.nj;
  return true;
}

}  // namespace sscl::device
