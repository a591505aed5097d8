#include "spice/elements.hpp"

#include <cmath>
#include <stdexcept>

namespace sscl::spice {

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, NodeId a, NodeId b, double resistance)
    : Device(std::move(name)), a_(a), b_(b), resistance_(resistance) {
  if (resistance_ <= 0) {
    throw std::invalid_argument("Resistor " + this->name() +
                                ": resistance must be positive");
  }
}

void Resistor::set_resistance(double r) {
  if (r <= 0) throw std::invalid_argument("Resistor: resistance must be positive");
  resistance_ = r;
}

void Resistor::reserve(PatternContext& ctx) {
  gp_ = ctx.conductance(a_, b_);
}

bool Resistor::is_static(AnalysisMode /*mode*/) const { return true; }

void Resistor::load(LoadContext& ctx) {
  if (ctx.mode() == AnalysisMode::kInitState) return;
  ctx.stamp_conductance(gp_, 1.0 / resistance_);
}

void Resistor::load_ac(AcContext& ctx) const {
  ctx.stamp_admittance(gp_, {1.0 / resistance_, 0.0});
}

void Resistor::add_noise(NoiseContext& ctx) const {
  // Johnson-Nyquist thermal noise: S_i = 4kT/R.
  constexpr double kB = 1.380649e-23;
  ctx.add(a_, b_, 4.0 * kB * ctx.temperature() / resistance_,
          "thermal(" + name() + ")");
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double capacitance)
    : Device(std::move(name)), a_(a), b_(b), capacitance_(capacitance) {
  if (capacitance_ < 0) {
    throw std::invalid_argument("Capacitor " + this->name() +
                                ": capacitance must be non-negative");
  }
}

void Capacitor::setup(SetupContext& ctx) { state_ = ctx.alloc_state(2); }

void Capacitor::reserve(PatternContext& ctx) {
  np_ = ctx.linear_charge(a_, b_, capacitance_, state_, *this);
}

bool Capacitor::is_static(AnalysisMode /*mode*/) const { return true; }

void Capacitor::load(LoadContext& /*ctx*/) {
  // Open at DC; in transient the engine stamps the companion of the
  // linear charge declared in reserve() and keeps its state.
}

void Capacitor::load_ac(AcContext& ctx) const {
  ctx.stamp_admittance(np_.g, {0.0, ctx.omega() * capacitance_});
}

// ---------------------------------------------------------------- Inductor

Inductor::Inductor(std::string name, NodeId a, NodeId b, double inductance)
    : Device(std::move(name)), a_(a), b_(b), inductance_(inductance) {
  if (inductance_ <= 0) {
    throw std::invalid_argument("Inductor " + this->name() +
                                ": inductance must be positive");
  }
}

void Inductor::setup(SetupContext& ctx) {
  branch_ = ctx.alloc_branch();
  state_ = ctx.alloc_state(2);  // [current, voltage]
}

void Inductor::reserve(PatternContext& ctx) {
  kcl_a_ = ctx.nb(a_, branch_);
  kcl_b_ = ctx.nb(b_, branch_);
  br_a_ = ctx.bn(branch_, a_);
  br_b_ = ctx.bn(branch_, b_);
  br_br_ = ctx.bb(branch_, branch_);
  rhs_br_ = ctx.rb(branch_);
}

bool Inductor::is_static(AnalysisMode mode) const {
  // DC short: only the constant branch rows are stamped. The transient
  // companion depends on the candidate branch current.
  return mode == AnalysisMode::kDcOp;
}

void Inductor::load(LoadContext& ctx) {
  // Branch current j is the unknown; KCL rows get +-j.
  ctx.add_at(kcl_a_, 1.0);
  ctx.add_at(kcl_b_, -1.0);
  ctx.add_at(br_a_, 1.0);
  ctx.add_at(br_b_, -1.0);

  switch (ctx.mode()) {
    case AnalysisMode::kDcOp:
      // Branch equation: v_a - v_b = 0 (DC short), rows already stamped.
      return;
    case AnalysisMode::kInitState:
      // State is [flux, voltage]; at the DC operating point the inductor
      // voltage is zero.
      ctx.set_state(state_, inductance_ * ctx.branch_current(branch_));
      ctx.set_state(state_ + 1, 0.0);
      return;
    case AnalysisMode::kTransient: {
      // Flux-based companion: v_L = d(flux)/dt via the same integrator
      // helper as capacitor charge. v_L is linear in j with slope a0*L.
      const double a0 = ctx.integ_a0();
      const double j = ctx.branch_current(branch_);
      const double v_l = ctx.integrate_charge(state_, inductance_ * j);
      // Branch equation: v_a - v_b - v_L(j) = 0.
      ctx.add_at(br_br_, -a0 * inductance_);
      ctx.add_rhs_at(rhs_br_, v_l - a0 * inductance_ * j);
      return;
    }
  }
}

void Inductor::load_ac(AcContext& ctx) const {
  ctx.add_at(kcl_a_, 1.0);
  ctx.add_at(kcl_b_, -1.0);
  ctx.add_at(br_a_, 1.0);
  ctx.add_at(br_b_, -1.0);
  ctx.add_at(br_br_, {0.0, -ctx.omega() * inductance_});
}

// ------------------------------------------------------------ VoltageSource

VoltageSource::VoltageSource(std::string name, NodeId pos, NodeId neg,
                             SourceSpec spec)
    : Device(std::move(name)), pos_(pos), neg_(neg), spec_(std::move(spec)) {}

void VoltageSource::setup(SetupContext& ctx) { branch_ = ctx.alloc_branch(); }

void VoltageSource::reserve(PatternContext& ctx) {
  kcl_p_ = ctx.nb(pos_, branch_);
  kcl_n_ = ctx.nb(neg_, branch_);
  br_p_ = ctx.bn(branch_, pos_);
  br_n_ = ctx.bn(branch_, neg_);
  rhs_br_ = ctx.rb(branch_);
}

bool VoltageSource::is_static(AnalysisMode /*mode*/) const {
  // The waveform value depends on time and source scale only, both
  // fixed within one Newton solve.
  return true;
}

void VoltageSource::load(LoadContext& ctx) {
  if (ctx.mode() == AnalysisMode::kInitState) return;
  const double value =
      spec_.value(ctx.mode() == AnalysisMode::kTransient ? ctx.time() : 0.0) *
      ctx.source_scale();
  ctx.add_at(kcl_p_, 1.0);
  ctx.add_at(kcl_n_, -1.0);
  ctx.add_at(br_p_, 1.0);
  ctx.add_at(br_n_, -1.0);
  ctx.add_rhs_at(rhs_br_, value);
}

void VoltageSource::load_ac(AcContext& ctx) const {
  ctx.add_at(kcl_p_, 1.0);
  ctx.add_at(kcl_n_, -1.0);
  ctx.add_at(br_p_, 1.0);
  ctx.add_at(br_n_, -1.0);
  if (spec_.ac_magnitude() != 0.0) {
    const double phase = spec_.ac_phase_deg() * M_PI / 180.0;
    ctx.add_rhs_at(rhs_br_, std::polar(spec_.ac_magnitude(), phase));
  }
}

void VoltageSource::add_breakpoints(double tstop,
                                    std::vector<double>& breakpoints) const {
  spec_.add_breakpoints(tstop, breakpoints);
}

// ------------------------------------------------------------ CurrentSource

CurrentSource::CurrentSource(std::string name, NodeId pos, NodeId neg,
                             SourceSpec spec)
    : Device(std::move(name)), pos_(pos), neg_(neg), spec_(std::move(spec)) {}

void CurrentSource::reserve(PatternContext& ctx) {
  ip_ = ctx.current_source(pos_, neg_);
}

bool CurrentSource::is_static(AnalysisMode /*mode*/) const { return true; }

void CurrentSource::load(LoadContext& ctx) {
  if (ctx.mode() == AnalysisMode::kInitState) return;
  const double value =
      spec_.value(ctx.mode() == AnalysisMode::kTransient ? ctx.time() : 0.0) *
      ctx.source_scale();
  ctx.stamp_current_source(ip_, value);
}

void CurrentSource::load_ac(AcContext& ctx) const {
  if (spec_.ac_magnitude() != 0.0) {
    const double phase = spec_.ac_phase_deg() * M_PI / 180.0;
    const std::complex<double> i = std::polar(spec_.ac_magnitude(), phase);
    ctx.add_rhs_at(ip_.a, -i);
    ctx.add_rhs_at(ip_.b, i);
  }
}

void CurrentSource::add_breakpoints(double tstop,
                                    std::vector<double>& breakpoints) const {
  spec_.add_breakpoints(tstop, breakpoints);
}

// --------------------------------------------------------------------- Vcvs

Vcvs::Vcvs(std::string name, NodeId out_pos, NodeId out_neg, NodeId ctrl_pos,
           NodeId ctrl_neg, double gain)
    : Device(std::move(name)),
      op_(out_pos),
      on_(out_neg),
      cp_(ctrl_pos),
      cn_(ctrl_neg),
      gain_(gain) {}

void Vcvs::setup(SetupContext& ctx) { branch_ = ctx.alloc_branch(); }

void Vcvs::reserve(PatternContext& ctx) {
  kcl_p_ = ctx.nb(op_, branch_);
  kcl_n_ = ctx.nb(on_, branch_);
  br_p_ = ctx.bn(branch_, op_);
  br_n_ = ctx.bn(branch_, on_);
  br_cp_ = ctx.bn(branch_, cp_);
  br_cn_ = ctx.bn(branch_, cn_);
}

bool Vcvs::is_static(AnalysisMode /*mode*/) const { return true; }

void Vcvs::load(LoadContext& ctx) {
  if (ctx.mode() == AnalysisMode::kInitState) return;
  ctx.add_at(kcl_p_, 1.0);
  ctx.add_at(kcl_n_, -1.0);
  ctx.add_at(br_p_, 1.0);
  ctx.add_at(br_n_, -1.0);
  ctx.add_at(br_cp_, -gain_);
  ctx.add_at(br_cn_, gain_);
}

void Vcvs::load_ac(AcContext& ctx) const {
  ctx.add_at(kcl_p_, 1.0);
  ctx.add_at(kcl_n_, -1.0);
  ctx.add_at(br_p_, 1.0);
  ctx.add_at(br_n_, -1.0);
  ctx.add_at(br_cp_, -gain_);
  ctx.add_at(br_cn_, gain_);
}

// --------------------------------------------------------------------- Vccs

Vccs::Vccs(std::string name, NodeId out_pos, NodeId out_neg, NodeId ctrl_pos,
           NodeId ctrl_neg, double gm)
    : Device(std::move(name)),
      op_(out_pos),
      on_(out_neg),
      cp_(ctrl_pos),
      cn_(ctrl_neg),
      gm_(gm) {}

void Vccs::reserve(PatternContext& ctx) {
  op_cp_ = ctx.nn(op_, cp_);
  op_cn_ = ctx.nn(op_, cn_);
  on_cp_ = ctx.nn(on_, cp_);
  on_cn_ = ctx.nn(on_, cn_);
}

bool Vccs::is_static(AnalysisMode /*mode*/) const { return true; }

void Vccs::load(LoadContext& ctx) {
  if (ctx.mode() == AnalysisMode::kInitState) return;
  ctx.add_at(op_cp_, gm_);
  ctx.add_at(op_cn_, -gm_);
  ctx.add_at(on_cp_, -gm_);
  ctx.add_at(on_cn_, gm_);
}

void Vccs::load_ac(AcContext& ctx) const {
  ctx.add_at(op_cp_, gm_);
  ctx.add_at(op_cn_, -gm_);
  ctx.add_at(on_cp_, -gm_);
  ctx.add_at(on_cn_, gm_);
}

// --------------------------------------------------------------------- Cccs

Cccs::Cccs(std::string name, NodeId out_pos, NodeId out_neg,
           const VoltageSource* sense, double gain)
    : Device(std::move(name)),
      op_(out_pos),
      on_(out_neg),
      sense_(sense),
      gain_(gain) {
  if (!sense_) throw std::invalid_argument("Cccs: null sense source");
}

void Cccs::reserve(PatternContext& ctx) {
  op_s_ = ctx.nb(op_, sense_->branch());
  on_s_ = ctx.nb(on_, sense_->branch());
}

bool Cccs::is_static(AnalysisMode /*mode*/) const { return true; }

void Cccs::load(LoadContext& ctx) {
  if (ctx.mode() == AnalysisMode::kInitState) return;
  ctx.add_at(op_s_, gain_);
  ctx.add_at(on_s_, -gain_);
}

void Cccs::load_ac(AcContext& ctx) const {
  ctx.add_at(op_s_, gain_);
  ctx.add_at(on_s_, -gain_);
}

// --------------------------------------------------------------------- Ccvs

Ccvs::Ccvs(std::string name, NodeId out_pos, NodeId out_neg,
           const VoltageSource* sense, double transresistance)
    : Device(std::move(name)),
      op_(out_pos),
      on_(out_neg),
      sense_(sense),
      r_(transresistance) {
  if (!sense_) throw std::invalid_argument("Ccvs: null sense source");
}

void Ccvs::setup(SetupContext& ctx) { branch_ = ctx.alloc_branch(); }

void Ccvs::reserve(PatternContext& ctx) {
  kcl_p_ = ctx.nb(op_, branch_);
  kcl_n_ = ctx.nb(on_, branch_);
  br_p_ = ctx.bn(branch_, op_);
  br_n_ = ctx.bn(branch_, on_);
  br_s_ = ctx.bb(branch_, sense_->branch());
}

bool Ccvs::is_static(AnalysisMode /*mode*/) const { return true; }

void Ccvs::load(LoadContext& ctx) {
  if (ctx.mode() == AnalysisMode::kInitState) return;
  ctx.add_at(kcl_p_, 1.0);
  ctx.add_at(kcl_n_, -1.0);
  ctx.add_at(br_p_, 1.0);
  ctx.add_at(br_n_, -1.0);
  ctx.add_at(br_s_, -r_);
}

void Ccvs::load_ac(AcContext& ctx) const {
  ctx.add_at(kcl_p_, 1.0);
  ctx.add_at(kcl_n_, -1.0);
  ctx.add_at(br_p_, 1.0);
  ctx.add_at(br_n_, -1.0);
  ctx.add_at(br_s_, -r_);
}

// ---------------------------------------------------------------- SoftOpamp

SoftOpamp::SoftOpamp(std::string name, NodeId out, NodeId in_pos, NodeId in_neg,
                     double gain, double v_lo, double v_hi, double r_out)
    : Device(std::move(name)),
      out_(out),
      ip_(in_pos),
      in_(in_neg),
      gain_(gain),
      v_lo_(v_lo),
      v_hi_(v_hi),
      r_out_(r_out) {
  if (v_hi_ <= v_lo_) throw std::invalid_argument("SoftOpamp: v_hi <= v_lo");
  if (gain_ <= 0) throw std::invalid_argument("SoftOpamp: gain must be positive");
}

void SoftOpamp::setup(SetupContext& ctx) { branch_ = ctx.alloc_branch(); }

void SoftOpamp::reserve(PatternContext& ctx) {
  out_br_ = ctx.nb(out_, branch_);
  br_out_ = ctx.bn(branch_, out_);
  br_br_ = ctx.bb(branch_, branch_);
  br_ip_ = ctx.bn(branch_, ip_);
  br_in_ = ctx.bn(branch_, in_);
  rhs_br_ = ctx.rb(branch_);
}

void SoftOpamp::load(LoadContext& ctx) {
  if (ctx.mode() == AnalysisMode::kInitState) return;
  ctx.note_eval();
  const double vmid = 0.5 * (v_lo_ + v_hi_);
  const double vamp = 0.5 * (v_hi_ - v_lo_);
  const double vd = ctx.v(ip_) - ctx.v(in_);
  const double u = gain_ * vd / vamp;
  const double f = vmid + vamp * std::tanh(u);
  const double sech2 = 1.0 / (std::cosh(std::min(std::fabs(u), 350.0)) *
                              std::cosh(std::min(std::fabs(u), 350.0)));
  const double dfd = gain_ * sech2;  // d f / d vd
  ac_gain_ = dfd;

  // Branch equation: v(out) - Rout*j - f(vd) = 0 (j counts as leaving
  // the output node in its KCL row, so the Thevenin drop enters with a
  // minus sign), linearised:
  //   v(out) - Rout*j - dfd*(v(ip)-v(in)) = f(vd*) - dfd*vd*
  ctx.add_at(out_br_, 1.0);
  ctx.add_at(br_out_, 1.0);
  ctx.add_at(br_br_, -r_out_);
  ctx.add_at(br_ip_, -dfd);
  ctx.add_at(br_in_, dfd);
  ctx.add_rhs_at(rhs_br_, f - dfd * vd);
}

void SoftOpamp::load_ac(AcContext& ctx) const {
  ctx.add_at(out_br_, 1.0);
  ctx.add_at(br_out_, 1.0);
  ctx.add_at(br_br_, -r_out_);
  ctx.add_at(br_ip_, -ac_gain_);
  ctx.add_at(br_in_, ac_gain_);
}

// ---- ERC self-descriptions -------------------------------------------

bool Resistor::describe(DeviceInfo& info) const {
  info.kind = "resistor";
  info.terminals = {{"a", a_}, {"b", b_}};
  info.edges = {{a_, b_, DcCoupling::kConductive, resistance_}};
  return true;
}

bool Capacitor::describe(DeviceInfo& info) const {
  info.kind = "capacitor";
  info.terminals = {{"a", a_}, {"b", b_}};
  info.edges = {{a_, b_, DcCoupling::kOpen, capacitance_}};
  return true;
}

bool Inductor::describe(DeviceInfo& info) const {
  info.kind = "inductor";
  info.terminals = {{"a", a_}, {"b", b_}};
  // An inductor is a short at DC; the value carries the inductance.
  info.edges = {{a_, b_, DcCoupling::kConductive, inductance_}};
  return true;
}

bool VoltageSource::describe(DeviceInfo& info) const {
  info.kind = "vsource";
  info.terminals = {{"pos", pos_}, {"neg", neg_}};
  info.edges = {{pos_, neg_, DcCoupling::kRigid, spec_.dc_value()}};
  return true;
}

bool CurrentSource::describe(DeviceInfo& info) const {
  info.kind = "isource";
  info.terminals = {{"pos", pos_}, {"neg", neg_}};
  info.edges = {{pos_, neg_, DcCoupling::kCurrent, spec_.dc_value()}};
  return true;
}

bool Vcvs::describe(DeviceInfo& info) const {
  info.kind = "vcvs";
  info.terminals = {{"out+", op_}, {"out-", on_}, {"ctrl+", cp_}, {"ctrl-", cn_}};
  info.edges = {{op_, on_, DcCoupling::kRigid, 0.0}};
  return true;
}

bool Vccs::describe(DeviceInfo& info) const {
  info.kind = "vccs";
  info.terminals = {{"out+", op_}, {"out-", on_}, {"ctrl+", cp_}, {"ctrl-", cn_}};
  info.edges = {{op_, on_, DcCoupling::kCurrent, 0.0}};
  return true;
}

bool Cccs::describe(DeviceInfo& info) const {
  info.kind = "cccs";
  info.terminals = {{"out+", op_}, {"out-", on_}};
  info.edges = {{op_, on_, DcCoupling::kCurrent, 0.0}};
  return true;
}

bool Ccvs::describe(DeviceInfo& info) const {
  info.kind = "ccvs";
  info.terminals = {{"out+", op_}, {"out-", on_}};
  info.edges = {{op_, on_, DcCoupling::kRigid, 0.0}};
  return true;
}

bool SoftOpamp::describe(DeviceInfo& info) const {
  info.kind = "opamp";
  info.terminals = {{"out", out_}, {"in+", ip_}, {"in-", in_}};
  // The output is driven against ground: rigidly when ideal, through
  // the finite output resistance otherwise.
  info.edges = {{out_, kGround,
                 r_out_ > 0.0 ? DcCoupling::kConductive : DcCoupling::kRigid,
                 r_out_}};
  return true;
}

}  // namespace sscl::spice
