/// Operating-region certification pass (interval abstract
/// interpretation). Reads the sound node-voltage and device-region
/// intervals the op-region analyzer (lint/op_region.hpp) computed over
/// the declared PVT box before the passes ran (LintContext::op_region;
/// the weak-inversion rule reads them too), and turns the paper's STSCL
/// operating-region contract into diagnostics:
///
///   * every tail / pair device conducts in weak inversion (IC <= 10);
///   * the single-ended output swing satisfies Vsw >= 4 n UT, the
///     minimum for gain > 1 regeneration in an SCL stage;
///   * each pair device keeps saturation headroom |VDS| >= VDsat over
///     the whole box;
///   * the supply exceeds VDD,min = Vsw + VDsat,pair + VDsat,tail;
///   * bulk-drain-shorted PMOS loads stay in their triode-like region
///     (|VDS,load| <= VDsat,load).
///
/// Each property yields one of three outcomes: *certified* (the
/// interval bound proves it for every corner in the box — info),
/// *violated* (the interval bound refutes it at every corner —
/// warning), or *unproven* (the intervals are too wide to decide —
/// warning, because "cannot certify" is what a gate must treat as
/// failure). Soundness of the certified verdicts is cross-checked in CI
/// by a DC-solve oracle (tests/lint/test_op_region_oracle.cpp).

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lint/ir.hpp"
#include "lint/op_region.hpp"
#include "lint/rules/rules.hpp"
#include "util/units.hpp"

namespace sscl::lint::rules {

namespace {

using util::Interval;

std::string fmt_bound(double v, const char* unit) {
  if (v == std::numeric_limits<double>::infinity()) return "+inf";
  if (v == -std::numeric_limits<double>::infinity()) return "-inf";
  return util::format_si(v, unit, 3);
}

std::string fmt(const Interval& x, const char* unit) {
  if (x.is_empty()) return "(empty)";
  if (x.is_point()) return fmt_bound(x.lo, unit);
  return "[" + fmt_bound(x.lo, unit) + ", " + fmt_bound(x.hi, unit) + "]";
}

/// Inversion-coefficient ceiling below which we call a device weakly
/// inverted. IC < 1 is textbook weak inversion; the paper's cells work
/// up to moderate inversion, so the certified contract allows IC <= 10
/// (beyond that VDsat and the gm/ID advantage are lost).
constexpr double kWeakInversionIcMax = 10.0;

class OpRegionPass final : public Rule {
 public:
  const char* id() const override { return "op-region"; }
  const char* description() const override {
    return "interval abstract interpretation of the DC operating point: "
           "certifies weak inversion, swing, headroom, VDD,min and load "
           "region over a PVT box";
  }

  void run(const LintContext& ctx, Report& report) const override {
    // No facts: nothing to certify (no MOS devices).
    if (!ctx.view || !ctx.ir || !ctx.op_region) return;
    const CircuitView& view = *ctx.view;
    const AnalysisIR& ir = *ctx.ir;
    const OpRegionResult& r = *ctx.op_region;

    if (!view.fully_described()) {
      report.info(id(), "-",
                  "circuit contains devices without DC descriptions; "
                  "operating-region intervals stay unbounded and nothing "
                  "can be certified");
      return;
    }

    // ---- run summary ---------------------------------------------------
    {
      std::string box = "T=[" + util::format_si(r.options.t_lo_k - 273.15,
                                                "C", 3) +
                        ", " +
                        util::format_si(r.options.t_hi_k - 273.15, "C", 3) +
                        "]";
      if (r.options.vdd_tol > 0.0) {
        box += ", vdd_tol=" +
               util::format_si(100.0 * r.options.vdd_tol, "%", 3);
      }
      report.info(id(), "-",
                  "interval DC analysis converged in " +
                      std::to_string(r.sweeps) + " sweep(s) over box " + box);
    }
    if (r.contradiction) {
      report.warning(id(), "-",
                     "interval refinement found contradictory constraints "
                     "(the model admits no DC solution somewhere in the "
                     "box); bounds were kept conservative",
                     "check supply polarities and device model cards");
    }

    for (std::size_t gi = 0; gi < ir.pairs.size(); ++gi) {
      check_group(view, ir, r, static_cast<int>(gi), report);
    }
  }

 private:
  static std::string group_name(const CircuitView& view,
                                const SourceCoupledGroup& pair) {
    std::string members;
    for (std::size_t i = 0; i < pair.devices.size(); ++i) {
      if (i) members += ", ";
      members += view.devices()[pair.devices[i]].device->name();
    }
    return "{" + members + "}";
  }

  void certify(Report& report, const char* sub_id, const std::string& where,
               bool provable, bool refutable, const std::string& claim,
               const std::string& evidence, const std::string& fix) const {
    if (provable) {
      report.info(sub_id, where, "certified: " + claim + " (" + evidence +
                                     ") at every corner of the box");
    } else if (refutable) {
      report.warning(sub_id, where,
                     "violated: " + claim + " fails (" + evidence +
                         ") at every corner of the box",
                     fix);
    } else {
      report.warning(sub_id, where,
                     "unproven: cannot certify " + claim + " (" + evidence +
                         "); the interval bounds are too wide to decide",
                     fix);
    }
  }

  void check_group(const CircuitView& view, const AnalysisIR& ir,
                   const OpRegionResult& r, int gi, Report& report) const {
    const SourceCoupledGroup& pair = ir.pairs[static_cast<std::size_t>(gi)];
    const PairRegion* pr = nullptr;
    for (const PairRegion& p : r.pair_regions) {
      if (p.group == gi) pr = &p;
    }
    const std::string name = group_name(view, pair);
    const std::string tail_label = view.node_label(pair.source);

    // ---- weak inversion: pair devices and tail devices ---------------
    std::vector<int> members(pair.devices.begin(), pair.devices.end());
    for (const auto& reg : r.regions) {
      const CircuitView::DeviceDesc& info = view.devices()[reg.device].info;
      const bool in_group =
          std::find(pair.devices.begin(), pair.devices.end(), reg.device) !=
          pair.devices.end();
      if (!in_group && info.mos_d == pair.source) {
        members.push_back(reg.device);  // tail transistor below the pair
      }
    }
    for (const int di : members) {
      const DeviceRegion* reg = r.region_of(di);
      const std::string dev = view.devices()[di].device->name();
      if (!reg || reg->ic.is_empty()) {
        report.warning("op-region-weak-inversion", dev,
                       "unproven: no inversion-coefficient bound for " + dev +
                           " of pair " + name,
                       "give the device a DC description");
        continue;
      }
      certify(report, "op-region-weak-inversion", dev,
              reg->ic.hi <= kWeakInversionIcMax,
              reg->ic.lo > kWeakInversionIcMax,
              dev + " operates in weak inversion (IC <= 10)",
              "IC in " + fmt(reg->ic, ""),
              "lower the tail current or widen W/L to push IC back below "
              "10");
    }

    if (!pr) return;

    // Pair-device hulls used by the remaining properties.
    double n_pair = 1.0;
    Interval ut_pair;
    for (const int di : pair.devices) {
      if (const DeviceRegion* reg = r.region_of(di)) {
        n_pair = std::max(n_pair, reg->n);
        ut_pair = ut_pair.hull(reg->ut);
      }
    }

    // ---- swing: Vsw >= 4 n UT ----------------------------------------
    if (pr->swing_known && !ut_pair.is_empty()) {
      const double need = 4.0 * n_pair * ut_pair.hi;
      certify(report, "op-region-swing", tail_label, pr->swing.lo >= need,
              pr->swing.hi < 4.0 * n_pair * ut_pair.lo,
              "output swing of pair " + name + " >= 4 n UT = " +
                  util::format_si(need, "V", 3),
              "swing in " + fmt(pr->swing, "V"),
              "raise the load resistance (or mirror ratio) so Iss*RL "
              "clears 4 n UT");
    } else {
      report.warning("op-region-swing", tail_label,
                     "unproven: no swing bound for pair " + name +
                         (pr->has_load ? "" : " (no load was identified)"),
                     "load each output with a resistor or a "
                     "bulk-drain-shorted PMOS");
    }

    // ---- per-device saturation headroom ------------------------------
    for (const int di : pair.devices) {
      const DeviceRegion* reg = r.region_of(di);
      const CircuitView::DeviceDesc& info = view.devices()[di].info;
      const std::string dev = view.devices()[di].device->name();
      if (!reg || reg->vdsat.is_empty()) continue;
      const Interval vd = r.node_v[CircuitView::slot(info.mos_d)];
      const Interval vs = r.node_v[CircuitView::slot(info.mos_s)];
      // |VDS| lower bound over the box, oriented by polarity.
      const double vds_lo =
          pair.is_nmos ? (vd.lo - vs.hi) : (vs.lo - vd.hi);
      const double vds_hi =
          pair.is_nmos ? (vd.hi - vs.lo) : (vs.hi - vd.lo);
      const bool bounded = std::isfinite(vds_lo) || std::isfinite(vds_hi);
      certify(report, "op-region-headroom", dev,
              bounded && vds_lo >= reg->vdsat.hi,
              bounded && vds_hi < reg->vdsat.lo,
              dev + " keeps saturation headroom (|VDS| >= VDsat = " +
                  fmt(reg->vdsat, "V") + ")",
              "|VDS| in [" + fmt_bound(vds_lo, "V") + ", " +
                  fmt_bound(vds_hi, "V") + "]",
              "raise VDD or reduce the stacked drops above this device");
    }

    // ---- VDD,min: rail >= swing + VDsat,pair + VDsat,tail ------------
    if (pr->rail_known && pr->swing_known && !pr->vdsat_pair.is_empty()) {
      const double tail_drop =
          pr->vdsat_tail.is_empty() ? 0.0 : pr->vdsat_tail.hi;
      const double vdd_min = pr->swing.hi + pr->vdsat_pair.hi + tail_drop;
      certify(report, "op-region-vddmin", tail_label,
              pr->rail.lo >= vdd_min,
              pr->rail.hi < pr->swing.lo +
                                (pr->vdsat_pair.is_empty()
                                     ? 0.0
                                     : pr->vdsat_pair.lo),
              "supply of pair " + name + " >= VDD,min = " +
                  util::format_si(vdd_min, "V", 3) +
                  " (swing + VDsat,pair + VDsat,tail)",
              "rail in " + fmt(pr->rail, "V"),
              "raise VDD or trim the swing toward the 4 n UT minimum");
    } else if (pr->swing_known) {
      report.warning("op-region-vddmin", tail_label,
                     "unproven: no supply-rail bound for pair " + name,
                     "reference the cell to a named vdd/vcc supply source");
    }

    // ---- load region -------------------------------------------------
    // Bulk-drain-shorted loads (the paper's high-value resistor) never
    // satisfy a |VDS| < VDsat test: the drain-bulk tie couples the
    // output into the bulk and the device conducts as an exponential
    // resistor for as long as its channel stays weakly inverted — so
    // that is the certified property. Conventionally-bulked MOS loads
    // get the classic triode test against VDsat.
    if (pr->has_mos_load && pr->load_bulk_drain_shorted &&
        !pr->ic_load.is_empty()) {
      certify(report, "op-region-triode", tail_label,
              pr->ic_load.hi <= kWeakInversionIcMax,
              pr->ic_load.lo > kWeakInversionIcMax,
              "bulk-drain-shorted loads of pair " + name +
                  " conduct in their resistor-like weak-inversion region",
              "load IC in " + fmt(pr->ic_load, ""),
              "raise the load gate bias toward the rail (or widen the "
              "loads) to pull the channel back into weak inversion");
    } else if (pr->has_mos_load && !pr->vdsat_load.is_empty() &&
               pr->swing_known) {
      certify(report, "op-region-triode", tail_label,
              pr->swing.hi <= pr->vdsat_load.lo,
              pr->swing.lo > pr->vdsat_load.hi,
              "MOS loads of pair " + name +
                  " stay in their triode region (|VDS| <= VDsat,load)",
              "swing in " + fmt(pr->swing, "V") + ", VDsat,load in " +
                  fmt(pr->vdsat_load, "V"),
              "widen the load devices so VDsat,load clears the swing");
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_op_region_pass() {
  return std::make_unique<OpRegionPass>();
}

}  // namespace sscl::lint::rules
