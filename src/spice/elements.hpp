#pragma once

/// \file elements.hpp
/// Linear and controlled-source circuit elements: R, C, L, V, I, E
/// (VCVS), G (VCCS), F (CCCS), H (CCVS) and a behavioural soft-clipping
/// op-amp used by bias generators.

#include <string>

#include "spice/circuit.hpp"
#include "spice/device.hpp"
#include "spice/sources.hpp"
#include "spice/types.hpp"

namespace sscl::spice {

class Resistor final : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double resistance);

  void reserve(PatternContext& ctx) override;
  bool is_static(AnalysisMode mode) const override;
  void load(LoadContext& ctx) override;
  void load_ac(AcContext& ctx) const override;
  void add_noise(NoiseContext& ctx) const override;
  bool describe(DeviceInfo& info) const override;

  double resistance() const { return resistance_; }
  void set_resistance(double r);
  NodeId node_a() const { return a_; }
  NodeId node_b() const { return b_; }

 private:
  NodeId a_, b_;
  double resistance_;
  ConductancePattern gp_;
};

class Capacitor final : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double capacitance);

  void setup(SetupContext& ctx) override;
  void reserve(PatternContext& ctx) override;
  bool is_static(AnalysisMode mode) const override;
  void load(LoadContext& ctx) override;
  void load_ac(AcContext& ctx) const override;
  bool describe(DeviceInfo& info) const override;

  double capacitance() const { return capacitance_; }

 private:
  NodeId a_, b_;
  double capacitance_;
  int state_ = -1;  // [charge, current]
  NonlinearPattern np_;
};

class Inductor final : public Device {
 public:
  Inductor(std::string name, NodeId a, NodeId b, double inductance);

  void setup(SetupContext& ctx) override;
  void reserve(PatternContext& ctx) override;
  bool is_static(AnalysisMode mode) const override;
  void load(LoadContext& ctx) override;
  void load_ac(AcContext& ctx) const override;
  bool describe(DeviceInfo& info) const override;

  BranchId branch() const { return branch_; }

 private:
  NodeId a_, b_;
  double inductance_;
  BranchId branch_ = -1;
  int state_ = -1;  // [current, voltage]
  MatrixSlot kcl_a_ = 0, kcl_b_ = 0, br_a_ = 0, br_b_ = 0, br_br_ = 0;
  RhsSlot rhs_br_ = 0;
};

class VoltageSource final : public Device {
 public:
  VoltageSource(std::string name, NodeId pos, NodeId neg, SourceSpec spec);

  void setup(SetupContext& ctx) override;
  void reserve(PatternContext& ctx) override;
  bool is_static(AnalysisMode mode) const override;
  void load(LoadContext& ctx) override;
  void load_ac(AcContext& ctx) const override;
  void add_breakpoints(double tstop,
                       std::vector<double>& breakpoints) const override;
  bool describe(DeviceInfo& info) const override;

  const SourceSpec& spec() const { return spec_; }
  void set_spec(SourceSpec spec) { spec_ = std::move(spec); }
  /// Branch whose MNA unknown is the source current (flows pos -> neg
  /// internally, i.e. positive when the source absorbs current).
  BranchId branch() const { return branch_; }

 private:
  NodeId pos_, neg_;
  SourceSpec spec_;
  BranchId branch_ = -1;
  MatrixSlot kcl_p_ = 0, kcl_n_ = 0, br_p_ = 0, br_n_ = 0;
  RhsSlot rhs_br_ = 0;
};

class CurrentSource final : public Device {
 public:
  /// Current flows from \p pos through the source to \p neg (SPICE
  /// convention: positive value pushes current out of neg).
  CurrentSource(std::string name, NodeId pos, NodeId neg, SourceSpec spec);

  void reserve(PatternContext& ctx) override;
  bool is_static(AnalysisMode mode) const override;
  void load(LoadContext& ctx) override;
  void load_ac(AcContext& ctx) const override;
  void add_breakpoints(double tstop,
                       std::vector<double>& breakpoints) const override;
  bool describe(DeviceInfo& info) const override;

  const SourceSpec& spec() const { return spec_; }
  void set_spec(SourceSpec spec) { spec_ = std::move(spec); }

 private:
  NodeId pos_, neg_;
  SourceSpec spec_;
  CurrentPattern ip_;
};

/// E element: v(out+, out-) = gain * v(ctrl+, ctrl-).
class Vcvs final : public Device {
 public:
  Vcvs(std::string name, NodeId out_pos, NodeId out_neg, NodeId ctrl_pos,
       NodeId ctrl_neg, double gain);

  void setup(SetupContext& ctx) override;
  void reserve(PatternContext& ctx) override;
  bool is_static(AnalysisMode mode) const override;
  void load(LoadContext& ctx) override;
  void load_ac(AcContext& ctx) const override;
  bool describe(DeviceInfo& info) const override;

 private:
  NodeId op_, on_, cp_, cn_;
  double gain_;
  BranchId branch_ = -1;
  MatrixSlot kcl_p_ = 0, kcl_n_ = 0, br_p_ = 0, br_n_ = 0, br_cp_ = 0,
             br_cn_ = 0;
};

/// G element: i(out+ -> out-) = gm * v(ctrl+, ctrl-).
class Vccs final : public Device {
 public:
  Vccs(std::string name, NodeId out_pos, NodeId out_neg, NodeId ctrl_pos,
       NodeId ctrl_neg, double gm);

  void reserve(PatternContext& ctx) override;
  bool is_static(AnalysisMode mode) const override;
  void load(LoadContext& ctx) override;
  void load_ac(AcContext& ctx) const override;
  bool describe(DeviceInfo& info) const override;

  void set_gm(double gm) { gm_ = gm; }

 private:
  NodeId op_, on_, cp_, cn_;
  double gm_;
  MatrixSlot op_cp_ = 0, op_cn_ = 0, on_cp_ = 0, on_cn_ = 0;
};

/// F element: i(out) = gain * i(through a named voltage source).
class Cccs final : public Device {
 public:
  Cccs(std::string name, NodeId out_pos, NodeId out_neg,
       const VoltageSource* sense, double gain);

  void reserve(PatternContext& ctx) override;
  bool is_static(AnalysisMode mode) const override;
  void load(LoadContext& ctx) override;
  void load_ac(AcContext& ctx) const override;
  bool describe(DeviceInfo& info) const override;

 private:
  NodeId op_, on_;
  const VoltageSource* sense_;
  double gain_;
  MatrixSlot op_s_ = 0, on_s_ = 0;
};

/// H element: v(out) = r * i(through a named voltage source).
class Ccvs final : public Device {
 public:
  Ccvs(std::string name, NodeId out_pos, NodeId out_neg,
       const VoltageSource* sense, double transresistance);

  void setup(SetupContext& ctx) override;
  void reserve(PatternContext& ctx) override;
  bool is_static(AnalysisMode mode) const override;
  void load(LoadContext& ctx) override;
  void load_ac(AcContext& ctx) const override;
  bool describe(DeviceInfo& info) const override;

 private:
  NodeId op_, on_;
  const VoltageSource* sense_;
  double r_;
  BranchId branch_ = -1;
  MatrixSlot kcl_p_ = 0, kcl_n_ = 0, br_p_ = 0, br_n_ = 0, br_s_ = 0;
};

/// Behavioural op-amp with a smooth tanh output clamp:
///   v(out) = vmid + 0.5*(vhi-vlo) * tanh( gain*(v+ - v-) / (0.5*(vhi-vlo)) )
/// Single-ended output referenced to ground; used for replica-bias
/// feedback loops where an ideal high-gain element keeps Newton stable.
class SoftOpamp final : public Device {
 public:
  /// \p r_out models the amplifier's finite output resistance; combined
  /// with an external decoupling capacitor it gives the loop realistic
  /// first-order dynamics (0 = ideal voltage output).
  SoftOpamp(std::string name, NodeId out, NodeId in_pos, NodeId in_neg,
            double gain, double v_lo, double v_hi, double r_out = 0.0);

  void setup(SetupContext& ctx) override;
  void reserve(PatternContext& ctx) override;
  void load(LoadContext& ctx) override;
  void load_ac(AcContext& ctx) const override;
  bool describe(DeviceInfo& info) const override;

 private:
  NodeId out_, ip_, in_;
  double gain_, v_lo_, v_hi_, r_out_;
  BranchId branch_ = -1;
  mutable double ac_gain_ = 0.0;  // linearised gain cached at the OP
  MatrixSlot out_br_ = 0, br_out_ = 0, br_br_ = 0, br_ip_ = 0, br_in_ = 0;
  RhsSlot rhs_br_ = 0;
};

}  // namespace sscl::spice
