/// Bias-current provenance (interprocedural taint pass). The paper's
/// platform claim is that one replica-bias current IB programs the
/// power–frequency point of the whole mixed-signal system — which is a
/// structural property: every STSCL tail current must trace back to a
/// bias root (a DC current source) through conductive paths and
/// current-mirror gate programming. This pass taint-propagates "carries
/// bias-programmed current" from every bias root across the net graph:
///
///   * conductive/rigid couplings spread taint between nets (never
///     through ground or a supply rail, which would taint everything);
///   * a MOSFET whose gate net is tainted is mirror-programmed: its
///     drain and source nets become tainted (this walks taint down
///     diode-connected masters, cascodes and tail devices).
///
/// A source-coupled tail with no provenance is flagged (the cell's
/// bias is outside the one-knob loop — the generalisation of the local
/// unbiased-tail rule). When every tail has provenance the pass records
/// the verified one-knob property as an info diagnostic. Mirror ratios
/// are estimated from the EKV specific currents (Ispec scales with W/L
/// exactly like the mirrored current), giving a static estimate of the
/// total programmed bias current, checked against the declared budget.

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "lint/dataflow.hpp"
#include "lint/ir.hpp"
#include "lint/lattice.hpp"
#include "lint/rules/rules.hpp"
#include "util/units.hpp"

namespace sscl::lint::rules {

namespace {

class BiasProvenancePass final : public Rule {
 public:
  const char* id() const override { return "bias-provenance"; }
  const char* description() const override {
    return "every source-coupled tail must trace back to a bias-current "
           "root through mirrors (the paper's one-knob IB property)";
  }

  void run(const LintContext& ctx, Report& report) const override {
    if (!ctx.view || !ctx.ir) return;
    const CircuitView& view = *ctx.view;
    const AnalysisIR& ir = *ctx.ir;
    if (ir.pairs.empty()) return;  // no source-coupled logic to check

    const int slots = view.slot_count();

    // Supply rails and ground block propagation.
    std::vector<char> blocked(slots, 0);
    blocked[CircuitView::slot(spice::kGround)] = 1;
    for (const SupplyRail& rail : ir.supplies) {
      blocked[CircuitView::slot(rail.node)] = 1;
    }

    // Taint edges: conductive/rigid couplings plus the mirror edges
    // gate -> drain / gate -> source. They are walked twice, to count and
    // then to fill the predecessor and successor rows in this order.
    auto for_each_edge = [&](auto&& visit) {
      auto add_edge = [&](int from, int to) {
        if (from == to) return;
        if (blocked[from]) return;  // taint never leaves a rail or ground
        if (to == CircuitView::slot(spice::kGround)) return;
        visit(from, to);
      };
      for (int s = 0; s < slots; ++s) {
        for (const NetEdge& e : ir.net_edges[s]) {
          if (e.coupling == spice::DcCoupling::kCurrent) continue;
          add_edge(e.to_slot, s);
        }
      }
      for (const auto& entry : view.devices()) {
        const CircuitView::DeviceDesc& info = entry.info;
        if (!info.is_mosfet) continue;
        const int gate = CircuitView::slot(info.mos_g);
        add_edge(gate, CircuitView::slot(info.mos_d));
        add_edge(gate, CircuitView::slot(info.mos_s));
      }
    };
    Csr<int> preds;
    Csr<int> succs;
    preds.reset(slots);
    succs.reset(slots);
    for_each_edge([&](int from, int to) {
      preds.count(to);
      succs.count(from);
    });
    preds.layout();
    succs.layout();
    for_each_edge([&](int from, int to) {
      preds.push(to, from);
      succs.push(from, to);
    });

    std::vector<char> root(slots, 0);
    for (const BiasRoot& r : ir.bias_roots) {
      root[CircuitView::slot(r.pos)] = 1;
      root[CircuitView::slot(r.neg)] = 1;
    }

    std::vector<bool> taint(slots, TaintLattice::bottom());
    solve_dataflow(succs, taint, [&](int v) -> bool {
      if (v == CircuitView::slot(spice::kGround)) return false;
      if (root[v]) return true;
      for (const int p : preds[v]) {
        if (taint[p]) return true;
      }
      return false;
    });

    // ---- tails without provenance -------------------------------------
    const bool described = view.fully_described();
    int traced = 0;
    for (const SourceCoupledGroup& pair : ir.pairs) {
      if (taint[CircuitView::slot(pair.source)]) {
        ++traced;
        continue;
      }
      std::string members;
      for (std::size_t i = 0; i < pair.devices.size(); ++i) {
        if (i) members += ", ";
        members += view.devices()[pair.devices[i]].device->name();
      }
      report.add(described ? Severity::kWarning : Severity::kInfo, id(),
                 view.node_label(pair.source),
                 "tail of source-coupled pair {" + members +
                     "} does not trace back to any bias-current root; its "
                     "operating point is outside the one-knob IB loop",
                 "bias the tail from the replica-bias mirror (or add a DC "
                 "current source) so IB programs this cell too");
    }
    if (traced == static_cast<int>(ir.pairs.size()) && !ir.bias_roots.empty()) {
      std::string roots;
      for (std::size_t i = 0; i < ir.bias_roots.size() && i < 4; ++i) {
        if (i) roots += ", ";
        roots += view.devices()[ir.bias_roots[i].device].device->name();
      }
      if (ir.bias_roots.size() > 4) roots += ", ...";
      report.info(id(), "-",
                  "one-knob property holds: all " + std::to_string(traced) +
                      " source-coupled tail(s) trace back to bias root(s) " +
                      roots);
    }

    check_budget(ctx, report);
  }

 private:
  /// Static estimate of the total bias current the roots program:
  /// direct root currents plus mirror branches scaled by Ispec ratio.
  void check_budget(const LintContext& ctx, Report& report) const {
    const CircuitView& view = *ctx.view;
    const AnalysisIR& ir = *ctx.ir;

    // Mirror masters: diode-connected MOSFETs (gate tied to drain)
    // sitting on a root's terminal net.
    struct Master {
      double ispec = 0.0;
      double ib = 0.0;
    };
    std::map<spice::NodeId, Master> masters;  // keyed by gate/drain net
    const auto& devices = view.devices();
    for (const auto& entry : devices) {
      const CircuitView::DeviceDesc& info = entry.info;
      if (!info.is_mosfet || info.mos_g != info.mos_d) continue;
      if (info.ispec <= 0.0) continue;
      for (const BiasRoot& r : ir.bias_roots) {
        if (r.pos == info.mos_g || r.neg == info.mos_g) {
          masters[info.mos_g] = {info.ispec, r.dc};
          break;
        }
      }
    }

    double total = 0.0;
    int branches = 0;
    for (const BiasRoot& r : ir.bias_roots) {
      total += r.dc;
      ++branches;
    }
    std::string worst_name;
    double worst = 0.0;
    for (const auto& entry : devices) {
      const CircuitView::DeviceDesc& info = entry.info;
      if (!info.is_mosfet || info.ispec <= 0.0) continue;
      if (info.mos_g == info.mos_d) continue;  // the master itself
      const auto master = masters.find(info.mos_g);
      if (master == masters.end()) continue;
      const double branch =
          master->second.ib * info.ispec / master->second.ispec;
      total += branch;
      ++branches;
      if (branch > worst) {
        worst = branch;
        worst_name = entry.device->name();
      }
    }
    if (branches == 0) return;

    if (ctx.bias_budget > 0.0 && total > ctx.bias_budget) {
      std::string detail = "estimated static bias current " +
                           util::format_si(total, "A", 3) + " over " +
                           std::to_string(branches) +
                           " branch(es) exceeds the declared budget " +
                           util::format_si(ctx.bias_budget, "A", 3);
      if (!worst_name.empty()) {
        detail += "; largest mirrored branch is " + worst_name + " at " +
                  util::format_si(worst, "A", 3);
      }
      report.warning(id(), "-", detail,
                     "lower IB, shrink the mirror W/L ratios, or raise the "
                     "budget if the power target moved");
    } else {
      report.info(id(), "-",
                  "estimated static bias current " +
                      util::format_si(total, "A", 3) + " over " +
                      std::to_string(branches) + " branch(es)");
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_bias_provenance_pass() {
  return std::make_unique<BiasProvenancePass>();
}

}  // namespace sscl::lint::rules
