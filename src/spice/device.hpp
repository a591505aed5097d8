#pragma once

/// \file device.hpp
/// The Device interface every circuit element implements, plus the
/// contexts through which devices allocate resources (SetupContext) and
/// stamp the MNA system (LoadContext / AcContext).
///
/// Conventions (identical to Berkeley SPICE):
///  * KCL row per non-ground node; auxiliary branch rows after them.
///  * A conductance g between nodes a,b stamps +g on the diagonals and
///    -g off-diagonal.
///  * A current i flowing a -> b subtracts from rhs[a] and adds to
///    rhs[b] (rhs holds source currents *into* each node).
///  * Nonlinear currents are stamped as their Newton companion:
///    G = di/dv at the candidate point and Ieq = i - G*v.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spice/linear_system.hpp"
#include "spice/stats.hpp"
#include "spice/types.hpp"

namespace sscl::util {
class Rng;
}  // namespace sscl::util

namespace sscl::spice {

class Circuit;
class Solution;

/// What the engine is currently computing. Devices branch on this to
/// decide between static, companion-model and state-recording behaviour.
enum class AnalysisMode {
  kDcOp,       ///< static solve; capacitors open, inductors short
  kInitState,  ///< after a DC op: record integrator state, no stamping
  kTransient,  ///< timestep solve with integrator companion models
};

/// Numerical integration method for transient analysis.
enum class IntegrationMethod { kBackwardEuler, kTrapezoidal };

/// Handed to Device::setup() during Circuit::elaborate().
class SetupContext {
 public:
  SetupContext(Circuit& circuit, int& branch_counter, int& state_counter)
      : circuit_(circuit),
        branch_counter_(branch_counter),
        state_counter_(state_counter) {}

  Circuit& circuit() { return circuit_; }

  /// Allocate one auxiliary MNA branch (voltage-source current etc.).
  BranchId alloc_branch() { return branch_counter_++; }

  /// Allocate \p count doubles of integrator state; returns base index.
  int alloc_state(int count) {
    const int base = state_counter_;
    state_counter_ += count;
    return base;
  }

 private:
  Circuit& circuit_;
  int& branch_counter_;
  int& state_counter_;
};

// ---- pattern pass -----------------------------------------------------

/// Slots for one conductance stamp (four matrix entries).
struct ConductancePattern {
  MatrixSlot aa = 0, bb = 0, ab = 0, ba = 0;
};

/// Slots for one current-source stamp (two rhs rows).
struct CurrentPattern {
  RhsSlot a = 0, b = 0;
};

/// Slots for one Newton-companion stamp (conductance + equivalent
/// current source).
struct NonlinearPattern {
  ConductancePattern g;
  CurrentPattern i;
};

class Device;

/// A linear two-terminal charge q = c * (v_a - v_b): a capacitor, a
/// MOSFET's gate capacitance. Declared in the pattern pass through
/// PatternContext::linear_charge(). Within one transient Newton solve
/// its companion -- conductance a0*c and a current from the previous
/// step's state -- is constant, so the engine stamps it into the
/// per-solve baseline and writes its state once, from the converged
/// solution. The owner's load() stamps nothing for it.
struct LinearCharge {
  NonlinearPattern slots;
  NodeId a = kGround, b = kGround;
  double c = 0.0;     ///< capacitance [F]
  int state = -1;     ///< integrator state base: [charge, current]
  const Device* owner = nullptr;  ///< named when a stamp is non-finite
};

/// Handed to Device::reserve() once, before the first load(). Devices
/// reserve every matrix entry and rhs row they will ever stamp; the
/// returned slots make the per-iteration load() a sequence of direct
/// indexed writes (no hashing, and writes involving ground land in the
/// trash slot without branching).
///
/// Reserve slots in the same order load() stamps them: the sparse
/// pattern's entry order is fixed here and determines the
/// factorisation's deterministic tie-breaking.
class PatternContext {
 public:
  /// \p charges receives the linear_charge() declarations.
  PatternContext(LinearSystem& system, int node_count,
                 std::vector<LinearCharge>& charges)
      : system_(system), node_count_(node_count), charges_(charges) {}

  MatrixSlot nn(NodeId r, NodeId c) {
    if (r == kGround || c == kGround) return 0;
    return system_.reserve(r, c);
  }
  MatrixSlot nb(NodeId r, BranchId b) {
    if (r == kGround) return 0;
    return system_.reserve(r, node_count_ + b);
  }
  MatrixSlot bn(BranchId b, NodeId c) {
    if (c == kGround) return 0;
    return system_.reserve(node_count_ + b, c);
  }
  MatrixSlot bb(BranchId r, BranchId c) {
    return system_.reserve(node_count_ + r, node_count_ + c);
  }
  RhsSlot rn(NodeId r) { return r == kGround ? 0 : system_.reserve_rhs(r); }
  RhsSlot rb(BranchId b) { return system_.reserve_rhs(node_count_ + b); }

  ConductancePattern conductance(NodeId a, NodeId b) {
    return {nn(a, a), nn(b, b), nn(a, b), nn(b, a)};
  }
  CurrentPattern current_source(NodeId a, NodeId b) {
    return {rn(a), rn(b)};
  }
  NonlinearPattern nonlinear_current(NodeId a, NodeId b) {
    return {conductance(a, b), current_source(a, b)};
  }

  /// Declare the linear charge c * (v_a - v_b) of \p owner, with its
  /// [charge, current] state at \p state_base: reserves (and returns)
  /// the slots of nonlinear_current(a, b) and records the charge for the
  /// engine, which stamps its transient companion and writes its state.
  NonlinearPattern linear_charge(NodeId a, NodeId b, double c, int state_base,
                                 const Device& owner) {
    const NonlinearPattern slots = nonlinear_current(a, b);
    charges_.push_back({slots, a, b, c, state_base, &owner});
    return slots;
  }

 private:
  LinearSystem& system_;
  int node_count_;
  std::vector<LinearCharge>& charges_;
};

/// Handed to Device::load() on every Newton iteration.
class LoadContext {
 public:
  LoadContext(LinearSystem& system, int node_count, AnalysisMode mode)
      : system_(system), node_count_(node_count), mode_(mode) {}

  AnalysisMode mode() const { return mode_; }
  double time() const { return time_; }
  double gmin() const { return gmin_; }
  double source_scale() const { return source_scale_; }
  bool first_iteration() const { return first_iteration_; }

  // ---- candidate solution access -------------------------------------
  double v(NodeId n) const { return n == kGround ? 0.0 : (*x_)[n]; }
  double branch_current(BranchId b) const { return (*x_)[node_count_ + b]; }
  /// Previous Newton iterate, for junction/FET limiting.
  double prev_v(NodeId n) const {
    return n == kGround ? 0.0 : (*x_prev_)[n];
  }
  bool has_prev_iterate() const { return x_prev_ != nullptr && !first_iteration_; }

  // ---- integrator state ----------------------------------------------
  double state_prev(int idx) const { return (*state_prev_)[idx]; }
  void set_state(int idx, double v) { (*state_now_)[idx] = v; }

  /// dI/dQ of the integration method at the current timestep.
  double integ_a0() const { return a0_; }

  /// Companion current for a charge-based branch: given the candidate
  /// charge q and the device's state base (slot 0 = charge, slot 1 =
  /// current), returns the branch current this timestep.
  double charge_current(int state_base, double q) const {
    const double q_prev = state_prev(state_base);
    if (method_ == IntegrationMethod::kTrapezoidal) {
      return a0_ * (q - q_prev) - state_prev(state_base + 1);
    }
    return a0_ * (q - q_prev);
  }

  /// charge_current() that also records q and the current as the new
  /// state.
  double integrate_charge(int state_base, double q) {
    const double i = charge_current(state_base, q);
    set_state(state_base, q);
    set_state(state_base + 1, i);
    return i;
  }

  // ---- stamping through the slots reserved in the pattern pass -------

  void add_at(MatrixSlot s, double v) { system_.add_at(s, v); }
  void add_rhs_at(RhsSlot s, double v) { system_.add_rhs_at(s, v); }

  /// Linear conductance g between the pattern's nodes a and b.
  void stamp_conductance(const ConductancePattern& p, double g) {
    system_.add_at(p.aa, g);
    system_.add_at(p.bb, g);
    system_.add_at(p.ab, -g);
    system_.add_at(p.ba, -g);
  }
  /// Independent current i flowing from the pattern's node a to b.
  void stamp_current_source(const CurrentPattern& p, double i) {
    system_.add_rhs_at(p.a, -i);
    system_.add_rhs_at(p.b, i);
  }
  /// Newton companion for a nonlinear two-terminal current i(v_ab) with
  /// derivative g evaluated at the candidate v_ab.
  void stamp_nonlinear_current(const NonlinearPattern& p, double i, double g,
                               double v_ab) {
    stamp_conductance(p.g, g);
    stamp_current_source(p.i, i - g * v_ab);
  }

  // ---- per-device bypass ----------------------------------------------

  /// Newton-tolerance test used by the bypass check: has this terminal
  /// voltage moved enough (vs the cached evaluation point) to warrant a
  /// fresh model evaluation?
  bool within_bypass_tol(double v_new, double v_cached) const {
    return std::fabs(v_new - v_cached) <=
           vntol_ + reltol_ * std::max(std::fabs(v_new), std::fabs(v_cached));
  }

  /// Devices report each full model evaluation / bypass hit so the
  /// engine's EngineStats can account for them (no-ops without stats).
  void note_eval() {
    if (stats_) ++stats_->device_evals;
  }
  void note_bypass() {
    if (stats_) ++stats_->bypass_hits;
  }

  /// Devices call this when they limited their evaluation voltages; the
  /// engine then runs at least one more iteration.
  void set_not_converged() { limited_ = true; }
  bool limited() const { return limited_; }

  // ---- engine wiring (set once per iteration by the engine) -----------
  void configure(const std::vector<double>* x, const std::vector<double>* x_prev,
                 std::vector<double>* state_now,
                 const std::vector<double>* state_prev, double time,
                 double gmin, double source_scale, bool first_iteration,
                 IntegrationMethod method, double a0) {
    x_ = x;
    x_prev_ = x_prev;
    state_now_ = state_now;
    state_prev_ = state_prev;
    time_ = time;
    gmin_ = gmin;
    source_scale_ = source_scale;
    first_iteration_ = first_iteration;
    method_ = method;
    a0_ = a0;
    limited_ = false;
  }

  void set_mode(AnalysisMode mode) { mode_ = mode; }

  /// Engine wiring: the tolerances of within_bypass_tol().
  void set_bypass_tol(double reltol, double vntol) {
    reltol_ = reltol;
    vntol_ = vntol;
  }

  /// Engine wiring: where note_eval()/note_bypass() accumulate.
  void set_stats(EngineStats* stats) { stats_ = stats; }

 private:
  LinearSystem& system_;
  int node_count_;
  AnalysisMode mode_;
  double reltol_ = 1e-4;
  double vntol_ = 1e-7;
  EngineStats* stats_ = nullptr;
  const std::vector<double>* x_ = nullptr;
  const std::vector<double>* x_prev_ = nullptr;
  std::vector<double>* state_now_ = nullptr;
  const std::vector<double>* state_prev_ = nullptr;
  double time_ = 0.0;
  double gmin_ = 1e-12;
  double source_scale_ = 1.0;
  bool first_iteration_ = true;
  IntegrationMethod method_ = IntegrationMethod::kTrapezoidal;
  double a0_ = 0.0;
  bool limited_ = false;
};

/// Handed to Device::load_ac(). Devices stamp complex admittances, from
/// small-signal parameters cached during the preceding DC operating
/// point load, through the slots their reserve() took.
class AcContext {
 public:
  AcContext(ComplexSystem& system, double omega)
      : system_(system), omega_(omega) {}

  double omega() const { return omega_; }

  void add_at(MatrixSlot s, std::complex<double> v) { system_.add_at(s, v); }
  void add_rhs_at(RhsSlot s, std::complex<double> v) {
    system_.add_rhs_at(s, v);
  }

  /// Complex admittance y between the pattern's nodes a and b.
  void stamp_admittance(const ConductancePattern& p, std::complex<double> y) {
    system_.add_at(p.aa, y);
    system_.add_at(p.bb, y);
    system_.add_at(p.ab, -y);
    system_.add_at(p.ba, -y);
  }

 private:
  ComplexSystem& system_;
  double omega_;
};

/// Collects elementary noise current sources from devices (definitions
/// of the analysis live in noise.hpp).
class NoiseContext {
 public:
  struct Source {
    NodeId a = kGround;  ///< noise current flows a -> b
    NodeId b = kGround;
    double psd = 0.0;  ///< white PSD [A^2/Hz] at the operating point
    std::string label;
  };

  explicit NoiseContext(double temperature) : temperature_(temperature) {}
  double temperature() const { return temperature_; }
  void add(NodeId a, NodeId b, double psd, std::string label) {
    sources_.push_back({a, b, psd, std::move(label)});
  }
  const std::vector<Source>& sources() const { return sources_; }

 private:
  double temperature_;
  std::vector<Source> sources_;
};

// ---- Monte-Carlo ensemble channel ------------------------------------

/// Per-device batched evaluation channel, created by
/// Device::make_ensemble_channel() and driven by the EnsembleEngine
/// (ensemble.hpp). A channel owns the SoA parameter and output lanes of
/// one device across one block of Monte-Carlo samples; the device
/// object itself is never mutated.
class EnsembleChannel {
 public:
  virtual ~EnsembleChannel() = default;

  /// Stage the per-sample parameters of \p count lanes. Lane k holds
  /// the draw of global sample first_sample + k; \p ordinal is this
  /// device's mismatch ordinal within the circuit, so lane contents
  /// equal the legacy perturb_sample(Rng(seed).fork(s), ordinal) draw.
  virtual void sample_params(const util::Rng& base,
                             std::uint64_t first_sample, int count,
                             std::uint64_t ordinal) = 0;

  /// Evaluate the device model for every lane with active[k] != 0;
  /// xs[k] points at lane k's candidate solution vector. Lane
  /// arithmetic must be elementwise (lane k's outputs independent of
  /// the mask and of other lanes).
  virtual void evaluate(const std::vector<const double*>& xs,
                        const std::vector<char>& active) = 0;

  /// Stamp lane \p lane's cached evaluation into the MNA system, in
  /// the same slot order as the device's own load().
  virtual void stamp(LoadContext& ctx, int lane) const = 0;
};

// ---- Static electrical self-description (consumed by sscl::lint) -----

/// How a device couples a pair of terminals at DC.
enum class DcCoupling {
  kConductive,  ///< finite nonzero conductance (R, L, MOS channel, junction)
  kRigid,       ///< voltage-defined branch (V source, E/H outputs, opamp out)
  kCurrent,     ///< current injection, infinite DC impedance (I, G/F outputs)
  kOpen,        ///< no DC path (capacitor, MOS gate coupling)
};

/// One named device terminal. A terminal that appears in no kConductive,
/// kRigid or kCurrent edge is high-impedance (it draws no DC current).
struct TerminalDesc {
  const char* role;  ///< "a", "pos", "drain", "ctrl+", ... device-specific
  NodeId node;
};

/// DC coupling between two terminals (or a terminal and ground).
struct DcEdge {
  NodeId a;
  NodeId b;
  DcCoupling coupling;
  /// Magnitude whose meaning depends on coupling: ohms (kConductive
  /// resistors), volts (kRigid), DC amps (kCurrent), farads (kOpen
  /// capacitors). 0 when not meaningful.
  double value = 0.0;
};

/// The scalar fields of a DeviceInfo: what the device is and, for a
/// MOSFET, its terminals and DC model card. lint::CircuitView keeps
/// them as they are and the two lists as spans.
struct DeviceScalars {
  const char* kind = "";  ///< "resistor", "mosfet", ...

  // MOSFET payload for the subthreshold bias rules (set by
  // device::Mosfet; is_mosfet stays false for everything else).
  bool is_mosfet = false;
  bool is_nmos = true;
  double ispec = 0.0;  ///< EKV specific current 2 n beta UT^2 [A]
  NodeId mos_d = kGround, mos_g = kGround, mos_s = kGround, mos_b = kGround;

  // DC model card as instantiated (mismatch folded in), consumed by the
  // op-region interval evaluator. Valid only when is_mosfet.
  double mos_vt0 = 0.0;    ///< |VT0| incl. mismatch shift [V]
  double mos_n = 1.0;      ///< subthreshold slope factor
  double mos_kp = 0.0;     ///< transconductance factor incl. mismatch [A/V^2]
  double mos_lambda = 0.0; ///< channel-length modulation [1/V]
  double mos_w = 0.0, mos_l = 1.0;  ///< geometry [m]
  double mos_temp = 0.0;   ///< temperature the card is valid at [K]
  double mos_ijs_s = 0.0;  ///< bulk-source junction saturation current [A]
  double mos_ijs_d = 0.0;  ///< bulk-drain junction saturation current [A]
  double mos_nj = 1.0;     ///< junction ideality factor
};

/// Filled by Device::describe() for electrical-rule checking.
struct DeviceInfo : DeviceScalars {
  std::vector<TerminalDesc> terminals;
  std::vector<DcEdge> edges;
};

/// Base class of every circuit element.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  /// Allocate branches/state. Called once by Circuit::elaborate().
  virtual void setup(SetupContext& /*ctx*/) {}

  /// Pre-reserve every matrix/rhs slot load() will write. Called once by
  /// the engine after elaboration, before the first load(); the engine
  /// then freezes the pattern, so load() can stamp only through the
  /// slots reserved here. The default reserves nothing, for devices
  /// that never stamp the system.
  virtual void reserve(PatternContext& /*ctx*/) {}

  /// True when load() stamps values independent of the candidate
  /// solution in the given mode (they may still depend on time, gmin,
  /// source scale and the integration coefficient, which are fixed
  /// within one Newton solve). Static devices are stamped once per
  /// solve into the cached baseline instead of on every iteration.
  virtual bool is_static(AnalysisMode /*mode*/) const { return false; }

  /// Stamp the MNA system for the current Newton iteration.
  virtual void load(LoadContext& ctx) = 0;

  /// Stamp the small-signal system at the given frequency. Devices that
  /// cached their operating point during the last load() use it here.
  virtual void load_ac(AcContext& /*ctx*/) const {}

  /// Append transient breakpoints (source edges) in (0, tstop].
  virtual void add_breakpoints(double /*tstop*/,
                               std::vector<double>& /*breakpoints*/) const {}

  /// Register physical noise sources evaluated at the last operating
  /// point (called after a DC solve). Default: noiseless.
  virtual void add_noise(NoiseContext& /*ctx*/) const {}

  /// Fill a static electrical description for ERC (sscl::lint). Returns
  /// false when the device cannot describe itself; the linter then
  /// treats the circuit as incompletely described and downgrades its
  /// connectivity findings to warnings.
  virtual bool describe(DeviceInfo& /*info*/) const { return false; }

  /// Forget every run-dependent evaluation artifact — bypass caches,
  /// junction limiting history — restoring the device to its
  /// just-elaborated condition. Parameters, allocated branches/state
  /// slots and reserved stamp slots are untouched. Engine::reset_runtime
  /// calls this so a cached engine (sscl-serve) replays a deck with
  /// arithmetic bit-identical to a freshly constructed one.
  virtual void reset_runtime() {}

  // ---- Monte-Carlo ensemble interface ---------------------------------

  /// Apply the mismatch draw of Monte-Carlo stream \p stream to this
  /// device instance (the legacy per-sample path: the device object is
  /// mutated in place). \p ordinal is the device's position among the
  /// devices that participate in mismatch, so the draw is a pure
  /// function of (stream, ordinal). Returns true when the device
  /// consumed the draw; the caller advances the ordinal only then.
  virtual bool perturb_sample(const util::Rng& /*stream*/,
                              std::uint64_t /*ordinal*/) {
    return false;
  }

  /// Batched counterpart of perturb_sample(): create an EnsembleChannel
  /// that stages this device's per-sample parameters in SoA lanes and
  /// stamps any lane on demand, leaving the device object untouched.
  /// Returning nullptr (the default, and e.g. Mosfet with junction
  /// areas) tells the EnsembleEngine the device cannot be batched; the
  /// whole circuit then runs on the legacy per-sample path.
  virtual std::unique_ptr<EnsembleChannel> make_ensemble_channel() {
    return nullptr;
  }

 private:
  std::string name_;
};

}  // namespace sscl::spice
