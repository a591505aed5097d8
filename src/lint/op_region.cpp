/// Interval abstract interpretation of the DC operating point (see
/// op_region.hpp for the contract). The engine is a descending
/// refinement: every rule computes a *superset* of the node voltages
/// reachable in any DC solution over the PVT box and intersects it into
/// the current interval, so stopping after any sweep is sound.
///
/// Two cooperating rule families do the work:
///
///  * The Kirchhoff current-box rule. At a node where every DC coupling
///    comes from a resistor, a described MOSFET or an ideal current
///    source, the total device current flowing *into* the node is
///    monotone nonincreasing in the node's own voltage (resistor: -1/R;
///    channel seen from the drain: -gds; from the source: -gms; from a
///    diode-connected gate: -(gm+gds); bulk junctions: -gj) — with the
///    one non-monotone factor, channel-length modulation, frozen at its
///    box-level interval. KCL pins that current to the external
///    injection, so bisection on the monotone interval bound curves
///    yields two-sided voltage bounds.
///
///  * Channel branch-current intervals. A per-device interval for the
///    drain->source channel current, refined from the KCL balance at
///    *both* endpoint nodes and from the interval EKV transfer function
///    over the current voltage boxes. The node rule clamps each channel
///    term with this interval, which breaks the circular dependency
///    between mutually coupled nodes (an STSCL tail and its outputs
///    cannot lower-bound each other through the channel alone, but the
///    load resistor's deliverable current bounds the channel current,
///    which bounds the output node, which bounds the tail).

#include "lint/op_region.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "device/diode.hpp"
#include "device/ekv.hpp"
#include "util/constants.hpp"

namespace sscl::lint {

namespace {

using util::Interval;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Bisection window for node voltages [V]; clamping is sound because
/// both window endpoints are feasibility-checked before any bound is
/// derived from the window.
constexpr double kVWindow = 1.0e3;
/// Bisection iteration budget (window / 2^60 is far below 1 nV).
constexpr int kBisectIters = 60;
/// Swing bisection window [V]: larger than any subthreshold swing.
constexpr double kSwingMax = 2.0;
/// Node-interval change below this does not count as progress [V].
constexpr double kSettleV = 0.5e-6;
/// Current-interval relative change that counts as progress.
constexpr double kSettleIRel = 1.0e-3;
/// Refinement sweep cap (the result is sound at any cap).
constexpr int kMaxSweeps = 16;

/// Guard band on a KCL balance: the solver converges on voltage deltas
/// (reltol/vntol), not on an explicit residual bound, so currents in a
/// solved operating point balance only to roughly gm * vntol-ish slack
/// plus the gmin leakage. 1% relative + 1 pA absolute dominates both by
/// orders of magnitude while costing under a millivolt of bound width
/// in weak inversion (n UT ln(1.01) ~ 0.35 mV).
double kcl_guard(double i_scale) {
  return 1.0e-12 + 1.0e-2 * std::fabs(i_scale);
}

/// Outward-pad a current interval by the KCL guard of its own largest
/// finite magnitude.
Interval pad_kcl(const Interval& c) {
  double scale = 0.0;
  if (std::isfinite(c.lo)) scale = std::max(scale, std::fabs(c.lo));
  if (std::isfinite(c.hi)) scale = std::max(scale, std::fabs(c.hi));
  return c.pad(kcl_guard(scale));
}

bool kind_is(const spice::DeviceInfo& info, const char* kind) {
  return std::strcmp(info.kind, kind) == 0;
}

device::MosParams card_of(const spice::DeviceInfo& info) {
  device::MosParams p;
  p.is_nmos = info.is_nmos;
  p.vt0 = info.mos_vt0;
  p.n = info.mos_n;
  p.kp = info.mos_kp;
  p.lambda = info.mos_lambda;
  return p;
}

device::MosGeometry geom_of(const spice::DeviceInfo& info) {
  device::MosGeometry g;
  g.w = info.mos_w;
  g.l = info.mos_l;
  return g;
}

/// Bounds of the bulk-junction diode current over a voltage box.
/// junction_current is monotone increasing in v and monotone in nvt at
/// fixed v, so the box extrema sit at the corners.
Interval junction_box(const Interval& v, double isat, const Interval& nvt) {
  if (isat <= 0.0 || v.is_empty() || nvt.is_empty()) return Interval::point(0);
  double mn = kInf, mx = -kInf;
  const double vs[2] = {v.lo, v.hi};
  const double ns[2] = {nvt.lo, nvt.hi};
  for (double vv : vs) {
    for (double nn : ns) {
      double i = 0.0, g = 0.0;
      device::junction_current(vv, isat, nn, i, g);
      mn = std::min(mn, i);
      mx = std::max(mx, i);
    }
  }
  return {mn, mx};
}

/// A lower/upper bound pair on a current sum. Unlike Interval the two
/// sides are tracked independently (a clamp can pull them past each
/// other at an infeasible trial voltage; each side is still a valid
/// one-sided bound and the node rule uses them separately).
struct Bounds {
  double lo = 0.0;
  double hi = 0.0;
  Bounds& operator+=(const Bounds& o) {
    lo += o.lo;
    hi += o.hi;
    return *this;
  }
  Bounds& operator+=(const Interval& o) {
    lo += o.lo;
    hi += o.hi;
    return *this;
  }
};

/// Everything the current-box rule needs to know about one net.
struct NodeFlow {
  std::vector<int> resistors;  ///< device indices, one end here
  std::vector<int> mosfets;    ///< device indices, d/s/b here
  double i_ext = 0.0;          ///< ideal-source current into the node [A]
  /// Devices whose DC edges touch the node but are outside the
  /// monotone-flow model (vsources, controlled sources, diodes, ...).
  std::vector<int> offenders;

  bool eligible() const { return offenders.empty(); }
  bool has_terms() const { return !(resistors.empty() && mosfets.empty()); }
};

class Analyzer {
 public:
  Analyzer(const CircuitView& view, const AnalysisIR& ir,
           const OpRegionOptions& options)
      : view_(view), ir_(ir), options_(options) {
    tbox_ = Interval::make(options.t_lo_k, options.t_hi_k);
    ut_box_ =
        tbox_.map_increasing([](double t) { return util::thermal_voltage(t); });
  }

  OpRegionResult run();

 private:
  Interval& at(spice::NodeId n) { return node_v_[CircuitView::slot(n)]; }
  const Interval& at(spice::NodeId n) const {
    return node_v_[CircuitView::slot(n)];
  }

  void build_flows();
  void seed_and_sweep();
  void sweep_rigid_and_shorts();
  void update_channels();
  void sweep_kcl();
  void kcl_refine(spice::NodeId node);
  void derive_branch_currents();
  void derive_regions();
  void derive_pairs();

  /// Intersect \p next into the node interval; an empty intersection
  /// keeps the previous bounds (soundness over precision) and raises
  /// the contradiction flag.
  void refine(spice::NodeId n, const Interval& next) {
    if (n == spice::kGround) return;
    Interval& cur = at(n);
    const Interval meet = cur.intersect(next);
    if (meet.is_empty()) {
      contradiction_ = true;
      return;
    }
    if (std::fabs(meet.lo - cur.lo) > kSettleV ||
        std::fabs(meet.hi - cur.hi) > kSettleV) {
      changed_ = true;
    }
    cur = meet;
  }

  /// Box of a MOSFET terminal, substituting \p v_sub at terminals that
  /// sit on \p node.
  Interval term_box(spice::NodeId term, spice::NodeId node,
                    const Interval& v_sub) const {
    return term == node ? v_sub : at(term);
  }

  /// Interval EKV evaluation that collapses aliased terminals: when a
  /// terminal shares its net with the bulk, the bulk-referenced
  /// difference is exactly zero no matter how wide the node box is.
  /// Plain interval subtraction of the same box widens to [lo-hi,
  /// hi-lo], which for a bulk-drain-shorted load blows the reverse term
  /// up to +inf and starves every KCL lower bound on MOS-loaded nets —
  /// so the netlist-aware differences go through the refs entry point.
  /// \p dv_hint is the unreflected vd - vs box the CLM factor is frozen
  /// at (a superset of the true one keeps the result sound).
  device::EkvIntervalResult eval_box(const spice::DeviceInfo& info,
                                     const Interval& vg, const Interval& vd,
                                     const Interval& vs, const Interval& vb,
                                     const Interval& dv_hint) const {
    const double sign = info.is_nmos ? 1.0 : -1.0;
    const auto ref = [&](spice::NodeId term, const Interval& v) {
      return term == info.mos_b ? Interval::point(0) : (v - vb) * sign;
    };
    return device::ekv_evaluate_interval_refs(
        card_of(info), geom_of(info), ref(info.mos_g, vg), ref(info.mos_d, vd),
        ref(info.mos_s, vs), dv_hint * sign, tbox_, info.mos_temp);
  }

  /// Channel current interval of device \p di over the current node
  /// boxes, with \p node forced to \p v_sub (empty when no channel
  /// applies, i.e. d == s).
  Interval channel_at(int di, spice::NodeId node,
                      const Interval& v_sub) const {
    const spice::DeviceInfo& info = view_.devices()[di].info;
    if (info.mos_d == info.mos_s) return Interval::point(0);
    const Interval vd = term_box(info.mos_d, node, v_sub);
    const Interval vg = term_box(info.mos_g, node, v_sub);
    const Interval vs = term_box(info.mos_s, node, v_sub);
    const Interval vb = term_box(info.mos_b, node, v_sub);
    // CLM frozen at the unsubstituted node boxes: keeps every output
    // bound monotone in v_sub and still contains the true factor.
    const Interval dv_hint = at(info.mos_d) - at(info.mos_s);
    return eval_box(info, vg, vd, vs, vb, dv_hint).id;
  }

  /// Bulk-junction currents of device \p di into \p node.
  Interval junctions_into(int di, spice::NodeId node,
                          const Interval& v_sub) const {
    const spice::DeviceInfo& info = view_.devices()[di].info;
    const bool d_here = info.mos_d == node;
    const bool s_here = info.mos_s == node;
    const bool b_here = info.mos_b == node;
    // Anode sits at the bulk for NMOS, at the diffusion for PMOS;
    // forward current flows anode -> cathode.
    const double jn = info.is_nmos ? 1.0 : -1.0;
    const Interval nvt = ut_box_ * info.mos_nj;
    Interval into = Interval::point(0);
    if (info.mos_ijs_s > 0.0 && b_here != s_here) {
      const Interval vj = (term_box(info.mos_b, node, v_sub) -
                           term_box(info.mos_s, node, v_sub)) *
                          jn;
      into = into + junction_box(vj, info.mos_ijs_s, nvt) * (s_here ? jn : -jn);
    }
    if (info.mos_ijs_d > 0.0 && b_here != d_here) {
      const Interval vj = (term_box(info.mos_b, node, v_sub) -
                           term_box(info.mos_d, node, v_sub)) *
                          jn;
      into = into + junction_box(vj, info.mos_ijs_d, nvt) * (d_here ? jn : -jn);
    }
    return into;
  }

  /// Device current into \p node at node voltage \p v_sub, external
  /// current sources excluded (they are the constant side of the KCL
  /// balance). Channel terms are clamped by the per-device channel
  /// current interval; each returned side stays monotone nonincreasing
  /// in a point v_sub. \p exclude_channel_of skips one device's channel
  /// term (its junctions stay in) for branch-current derivation.
  Bounds flow(spice::NodeId node, const Interval& v_sub,
              int exclude_channel_of = -1) const {
    const NodeFlow& nf = flows_[CircuitView::slot(node)];
    Bounds total;
    for (int di : nf.resistors) {
      const spice::DeviceInfo& info = view_.devices()[di].info;
      const spice::DcEdge& e = info.edges[0];
      const spice::NodeId other = e.a == node ? e.b : e.a;
      if (other == node) continue;  // both ends here: no net current
      total += (at(other) - v_sub) * (1.0 / e.value);
    }
    for (int di : nf.mosfets) {
      const spice::DeviceInfo& info = view_.devices()[di].info;
      total += junctions_into(di, node, v_sub);
      const bool d_here = info.mos_d == node;
      const bool s_here = info.mos_s == node;
      if (d_here == s_here) continue;  // no net channel current here
      if (di == exclude_channel_of) continue;
      const Interval ch = channel_at(di, node, v_sub);
      const Interval into = d_here ? -ch : ch;
      const Interval clamp = d_here ? -chan_[di] : chan_[di];
      // Each side is a valid bound on its own; the clamp may cross the
      // transfer bound at an infeasible v_sub, which simply steepens
      // the feasibility test there.
      total.lo += std::max(into.lo, clamp.lo);
      total.hi += std::min(into.hi, clamp.hi);
    }
    return total;
  }

  const CircuitView& view_;
  const AnalysisIR& ir_;
  OpRegionOptions options_;
  Interval tbox_;
  Interval ut_box_;

  std::vector<Interval> node_v_;
  std::vector<Interval> chan_;  ///< per-device d->s channel current
  std::vector<NodeFlow> flows_;
  bool changed_ = false;
  bool contradiction_ = false;
  int sweeps_ = 0;
  OpRegionResult result_;
};

void Analyzer::build_flows() {
  flows_.assign(view_.slot_count(), NodeFlow{});
  for (int s = 0; s < view_.slot_count(); ++s) {
    const spice::NodeId node = view_.node_of_slot(s);
    NodeFlow& nf = flows_[s];
    for (const CircuitView::Incidence& inc : view_.incidences(node)) {
      if (inc.edge < 0) continue;  // bare high-impedance terminal
      const CircuitView::DeviceEntry& entry = view_.devices()[inc.device];
      const spice::DcEdge& e = entry.info.edges[inc.edge];
      if (e.coupling == spice::DcCoupling::kOpen) continue;
      if (kind_is(entry.info, "resistor") && e.value > 0.0) {
        nf.resistors.push_back(inc.device);
      } else if (kind_is(entry.info, "mosfet") && entry.info.is_mosfet &&
                 entry.described) {
        // One entry per device even though the channel and both
        // junction edges can all touch this node (a device's edges are
        // pushed consecutively per slot).
        if (nf.mosfets.empty() || nf.mosfets.back() != inc.device) {
          nf.mosfets.push_back(inc.device);
        }
      } else if (kind_is(entry.info, "isource") &&
                 e.coupling == spice::DcCoupling::kCurrent) {
        // Current flows a(pos) -> b(neg) through the source: it leaves
        // the circuit at pos and re-enters at neg.
        if (e.b == node) nf.i_ext += e.value;
        if (e.a == node) nf.i_ext -= e.value;
      } else {
        if (nf.offenders.empty() || nf.offenders.back() != inc.device) {
          nf.offenders.push_back(inc.device);
        }
      }
    }
  }
}

void Analyzer::sweep_rigid_and_shorts() {
  const auto& devices = view_.devices();
  for (int di = 0; di < static_cast<int>(devices.size()); ++di) {
    const spice::DeviceInfo& info = devices[di].info;
    if (kind_is(info, "vsource")) {
      // The one rigid device we propagate through: independent sources
      // (the kRigid edges of controlled sources carry no usable value).
      for (const spice::DcEdge& e : info.edges) {
        if (e.coupling != spice::DcCoupling::kRigid) continue;
        Interval v = Interval::point(e.value);
        if (options_.vdd_tol > 0.0 &&
            is_supply_name(devices[di].device->name())) {
          v = Interval::make(e.value * (1.0 - options_.vdd_tol),
                             e.value * (1.0 + options_.vdd_tol));
        }
        refine(e.a, at(e.b) + v);
        refine(e.b, at(e.a) - v);
      }
    } else if (kind_is(info, "inductor")) {
      // DC short: equal node voltages (the edge value is an inductance,
      // never a resistance — do not feed it to the current rule).
      for (const spice::DcEdge& e : info.edges) {
        if (e.coupling != spice::DcCoupling::kConductive) continue;
        refine(e.a, at(e.b));
        refine(e.b, at(e.a));
      }
    }
  }
}

void Analyzer::update_channels() {
  const auto& devices = view_.devices();
  for (int di = 0; di < static_cast<int>(devices.size()); ++di) {
    const CircuitView::DeviceEntry& entry = devices[di];
    if (!entry.described || !entry.info.is_mosfet) continue;
    const spice::DeviceInfo& info = entry.info;
    if (info.mos_d == info.mos_s) continue;

    // Transfer-function bound over the current boxes.
    Interval c = chan_[di].intersect(
        channel_at(di, spice::kGround, at(spice::kGround)));

    // KCL balance at each endpoint whose every other coupling is
    // modelled: the channel current equals what the rest of the node
    // delivers. This is what bounds a channel through its load.
    const spice::NodeId ends[2] = {info.mos_d, info.mos_s};
    for (int k = 0; k < 2; ++k) {
      const NodeFlow& nf = flows_[CircuitView::slot(ends[k])];
      if (!nf.eligible()) continue;
      const Bounds fe = flow(ends[k], at(ends[k]), di);
      Interval cand{fe.lo + nf.i_ext, fe.hi + nf.i_ext};
      if (cand.is_empty()) continue;  // clamps crossed: no information
      cand = pad_kcl(cand);
      if (k == 1) cand = -cand;  // source side: into = +id, so id = -(...)
      const Interval meet = c.intersect(cand);
      if (meet.is_empty()) {
        contradiction_ = true;
        continue;
      }
      c = meet;
    }

    const Interval& prev = chan_[di];
    const double scale =
        std::max({std::fabs(c.lo), std::fabs(c.hi), 1.0e-15});
    if ((std::isfinite(prev.lo) != std::isfinite(c.lo)) ||
        (std::isfinite(prev.hi) != std::isfinite(c.hi)) ||
        (std::isfinite(c.lo) && std::fabs(c.lo - prev.lo) >
                                    kSettleIRel * scale) ||
        (std::isfinite(c.hi) &&
         std::fabs(c.hi - prev.hi) > kSettleIRel * scale)) {
      changed_ = true;
    }
    chan_[di] = c;
  }
}

void Analyzer::kcl_refine(spice::NodeId node) {
  const int s = CircuitView::slot(node);
  const NodeFlow& nf = flows_[s];
  const double guard = kcl_guard(nf.i_ext);
  const double t_lo = -nf.i_ext - guard;
  const double t_hi = -nf.i_ext + guard;

  const Interval window =
      node_v_[s].intersect(Interval::make(-kVWindow, kVWindow));
  if (window.is_empty()) return;

  const auto f_hi = [&](double v) { return flow(node, Interval::point(v)).hi; };
  const auto f_lo = [&](double v) { return flow(node, Interval::point(v)).lo; };

  // Upper bound: sup { v : f_hi(v) >= t_lo } with f_hi nonincreasing.
  double ub = node_v_[s].hi;
  if (f_hi(window.hi) >= t_lo) {
    // Feasible all the way up to the window clamp: no new bound.
  } else if (f_hi(window.lo) < t_lo) {
    contradiction_ = true;  // no feasible voltage in the window at all
    return;
  } else {
    double a = window.lo, b = window.hi;  // f_hi(a) >= t_lo > f_hi(b)
    for (int i = 0; i < kBisectIters; ++i) {
      const double m = 0.5 * (a + b);
      (f_hi(m) >= t_lo ? a : b) = m;
    }
    ub = b;  // outer side of the final bracket: sound
  }

  // Lower bound: inf { v : f_lo(v) <= t_hi } with f_lo nonincreasing.
  double lb = node_v_[s].lo;
  if (f_lo(window.lo) <= t_hi) {
    // Feasible all the way down to the window clamp: no new bound.
  } else if (f_lo(window.hi) > t_hi) {
    contradiction_ = true;
    return;
  } else {
    double a = window.lo, b = window.hi;  // f_lo(a) > t_hi >= f_lo(b)
    for (int i = 0; i < kBisectIters; ++i) {
      const double m = 0.5 * (a + b);
      (f_lo(m) > t_hi ? a : b) = m;
    }
    lb = a;  // outer side: sound
  }

  refine(node, Interval{lb, ub});
}

void Analyzer::sweep_kcl() {
  for (int s = 1; s < view_.slot_count(); ++s) {
    if (!flows_[s].eligible() || !flows_[s].has_terms()) continue;
    kcl_refine(view_.node_of_slot(s));
  }
}

void Analyzer::seed_and_sweep() {
  node_v_.assign(view_.slot_count(), Interval::top());
  node_v_[CircuitView::slot(spice::kGround)] = Interval::point(0);
  chan_.assign(view_.devices().size(), Interval::top());

  for (sweeps_ = 0; sweeps_ < kMaxSweeps; ++sweeps_) {
    changed_ = false;
    sweep_rigid_and_shorts();
    update_channels();
    sweep_kcl();
    if (!changed_) {
      ++sweeps_;
      break;
    }
  }
}

void Analyzer::derive_branch_currents() {
  const auto& devices = view_.devices();
  result_.branch_i.assign(devices.size(), Interval::empty());
  for (int di = 0; di < static_cast<int>(devices.size()); ++di) {
    const spice::DeviceInfo& info = devices[di].info;
    if (!kind_is(info, "vsource")) continue;
    for (const spice::DcEdge& e : info.edges) {
      if (e.coupling != spice::DcCoupling::kRigid) continue;
      // Branch current (pos -> neg through the source, positive when
      // the source absorbs power) equals the device current into pos
      // from the rest of the circuit, provided this source is the only
      // non-modelled device at that node (and symmetrically, with a
      // sign flip, at neg).
      const spice::NodeId ends[2] = {e.a, e.b};
      for (int k = 0; k < 2; ++k) {
        const NodeFlow& nf = flows_[CircuitView::slot(ends[k])];
        if (nf.offenders.size() != 1 || nf.offenders[0] != di) continue;
        if (!nf.has_terms() && nf.i_ext == 0.0) continue;
        const Bounds fe = flow(ends[k], at(ends[k]));
        Interval into{fe.lo + nf.i_ext, fe.hi + nf.i_ext};
        if (into.is_empty()) continue;
        into = pad_kcl(into);
        result_.branch_i[di] = k == 0 ? into : -into;
        break;
      }
    }
  }
}

void Analyzer::derive_regions() {
  const auto& devices = view_.devices();
  for (int di = 0; di < static_cast<int>(devices.size()); ++di) {
    const CircuitView::DeviceEntry& entry = devices[di];
    if (!entry.described || !entry.info.is_mosfet) continue;
    const spice::DeviceInfo& info = entry.info;
    // vd - vs computed directly (not as the difference of the
    // bulk-referenced boxes): tighter and equally sound.
    const device::EkvIntervalResult r =
        eval_box(info, at(info.mos_g), at(info.mos_d), at(info.mos_s),
                 at(info.mos_b), at(info.mos_d) - at(info.mos_s));
    DeviceRegion reg;
    reg.device = di;
    reg.ic = r.i_f;
    reg.vdsat = r.vdsat;
    const Interval clamped = r.id.intersect(chan_[di]);
    reg.id = clamped.is_empty() ? r.id : clamped;
    reg.ut = r.ut;
    reg.n = info.mos_n;
    result_.regions.push_back(reg);
  }
}

void Analyzer::derive_pairs() {
  const auto& devices = view_.devices();
  for (int gi = 0; gi < static_cast<int>(ir_.pairs.size()); ++gi) {
    const SourceCoupledGroup& group = ir_.pairs[gi];
    PairRegion pr;
    pr.group = gi;

    // ---- tail current magnitude and tail-device VDsat ----------------
    const NodeFlow& tail_flow = flows_[CircuitView::slot(group.source)];
    Interval iss = Interval::point(std::fabs(tail_flow.i_ext));
    bool any_source = tail_flow.i_ext != 0.0;
    pr.vdsat_tail = Interval::point(0);
    for (const DeviceRegion& reg : result_.regions) {
      const spice::DeviceInfo& info = devices[reg.device].info;
      if (info.mos_d != group.source) continue;
      const bool in_group =
          std::find(group.devices.begin(), group.devices.end(), reg.device) !=
          group.devices.end();
      if (in_group) continue;
      iss = iss + util::interval_abs(reg.id);
      pr.vdsat_tail = pr.vdsat_tail.hull(reg.vdsat);
      any_source = true;
    }
    pr.iss = iss;
    pr.iss_known = any_source && iss.is_bounded();

    // ---- pair-device VDsat hull --------------------------------------
    for (int di : group.devices) {
      if (const DeviceRegion* reg = result_.region_of(di)) {
        pr.vdsat_pair = pr.vdsat_pair.hull(reg->vdsat);
      }
    }

    // ---- loads at the pair drains ------------------------------------
    for (int di : group.devices) {
      const spice::DeviceInfo& pinfo = devices[di].info;
      const spice::NodeId out = pinfo.mos_d;
      if (out == group.source) continue;  // diode-connected pair member
      const NodeFlow& nf = flows_[CircuitView::slot(out)];
      for (int rj : nf.resistors) {
        const spice::DcEdge& e = devices[rj].info.edges[0];
        const spice::NodeId rail = e.a == out ? e.b : e.a;
        if (rail == out) continue;
        pr.has_load = true;
        pr.rail = pr.rail.hull(at(rail));
        pr.rail_known = true;
        if (pr.iss_known) {
          pr.swing = pr.swing.hull(pr.iss * e.value);
          pr.swing_known = true;
        }
      }
      for (int mj : nf.mosfets) {
        const spice::DeviceInfo& linfo = devices[mj].info;
        if (linfo.is_nmos == group.is_nmos) continue;  // not a load device
        if (linfo.mos_d != out) continue;
        pr.has_load = true;
        const bool first_mos_load = !pr.has_mos_load;
        pr.has_mos_load = true;
        pr.rail = pr.rail.hull(at(linfo.mos_s));
        pr.rail_known = true;
        const bool bd_short = linfo.mos_b == linfo.mos_d;
        pr.load_bulk_drain_shorted =
            (first_mos_load || pr.load_bulk_drain_shorted) && bd_short;
        if (const DeviceRegion* reg = result_.region_of(mj)) {
          pr.vdsat_load = pr.vdsat_load.hull(reg->vdsat);
          pr.ic_load = pr.ic_load.hull(reg->ic);
        }
        if (!pr.iss_known) continue;

        // Swing of a MOS load: bisect s = |vds| on the monotone
        // magnitude bound curves of the load current until it covers
        // the tail-current interval.
        const Interval vs_box = at(linfo.mos_s);
        const Interval vg_box = at(linfo.mos_g);
        const Interval dv_hint = Interval::make(-kSwingMax, kSwingMax);
        const auto mag = [&](double swing) {
          const Interval vd = vs_box + (linfo.is_nmos ? swing : -swing);
          const Interval vb =
              linfo.mos_b == linfo.mos_d ? vd : at(linfo.mos_b);
          return util::interval_abs(
              eval_box(linfo, vg_box, vd, vs_box, vb, dv_hint).id);
        };
        // Lower bound: smallest s with mag(s).hi >= iss.lo.
        double s_lo = 0.0;
        if (mag(kSwingMax).hi < pr.iss.lo) {
          continue;  // load can never carry the tail current: no bound
        }
        if (mag(0.0).hi < pr.iss.lo) {
          double a = 0.0, b = kSwingMax;  // mag.hi(a) < iss.lo <= mag.hi(b)
          for (int i = 0; i < kBisectIters; ++i) {
            const double m = 0.5 * (a + b);
            (mag(m).hi < pr.iss.lo ? a : b) = m;
          }
          s_lo = a;  // outer side: the true swing cannot be below a
        }
        // Upper bound: smallest s with mag(s).lo >= iss.hi.
        double s_hi = kInf;
        if (mag(kSwingMax).lo >= pr.iss.hi) {
          double a = 0.0, b = kSwingMax;
          if (mag(0.0).lo >= pr.iss.hi) {
            s_hi = 0.0;
          } else {
            for (int i = 0; i < kBisectIters; ++i) {
              const double m = 0.5 * (a + b);
              (mag(m).lo < pr.iss.hi ? a : b) = m;
            }
            s_hi = b;  // outer side: mag.lo(s_hi) already covers iss.hi
          }
        }
        pr.swing = pr.swing.hull(Interval{s_lo, s_hi});
        pr.swing_known = true;
      }
    }
    result_.pair_regions.push_back(pr);
  }
}

OpRegionResult Analyzer::run() {
  result_.options = options_;
  if (!view_.fully_described()) {
    // An undescribed device is invisible to the flow model: no sound
    // statement can be made about any node.
    result_.node_v.assign(view_.slot_count(), Interval::top());
    result_.branch_i.assign(view_.devices().size(), Interval::empty());
    return result_;
  }
  build_flows();
  seed_and_sweep();
  result_.node_v = node_v_;
  result_.sweeps = sweeps_;
  derive_branch_currents();
  derive_regions();
  derive_pairs();
  result_.contradiction = contradiction_;
  return result_;
}

}  // namespace

OpRegionResult analyze_op_region(const CircuitView& view, const AnalysisIR& ir,
                                 const OpRegionOptions& options) {
  Analyzer analyzer(view, ir, options);
  return analyzer.run();
}

}  // namespace sscl::lint
