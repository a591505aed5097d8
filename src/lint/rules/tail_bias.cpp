/// Subthreshold bias rules for source-coupled logic. An STSCL cell is a
/// source-coupled pair over a tail device: the pair's common source
/// node must have a bias path that is not part of the pair itself
/// (unbiased-tail), and the tail current must keep the pair in the EKV
/// weak-inversion region — IC = Iss / Ispec well below ~10 — or the
/// cell leaves the operating region every model in the platform assumes
/// (weak-inversion-bias).

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "lint/ir.hpp"
#include "lint/op_region.hpp"
#include "lint/rules/rules.hpp"
#include "util/units.hpp"

namespace sscl::lint::rules {

namespace {

/// True when the IR's source group \p g is a PMOS group whose node also
/// holds an NMOS group (the next one): the tail rules check one group
/// per node, the NMOS one where both polarities share it.
bool shadowed(const std::vector<SourceCoupledGroup>& groups, std::size_t g) {
  return g + 1 < groups.size() && groups[g + 1].source == groups[g].source;
}

class UnbiasedTailRule final : public Rule {
 public:
  const char* id() const override { return "unbiased-tail"; }
  const char* description() const override {
    return "a source-coupled pair needs a tail bias path";
  }

  void run(const LintContext& ctx, Report& report) const override {
    if (!ctx.view || !ctx.ir) return;
    const CircuitView& view = *ctx.view;
    const Severity sev =
        view.fully_described() ? Severity::kError : Severity::kWarning;
    const std::vector<SourceCoupledGroup>& groups = ctx.ir->source_groups;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (shadowed(groups, g)) continue;
      const spice::NodeId node = groups[g].source;
      const std::span<const int> pair = groups[g].devices;
      bool has_bias = false;
      for (const CircuitView::Incidence& inc : view.incidences(node)) {
        bool from_pair = false;
        for (const int di : pair) from_pair = from_pair || di == inc.device;
        if (!from_pair) {
          has_bias = true;
          break;
        }
      }
      if (!has_bias) {
        std::string members;
        for (std::size_t i = 0; i < pair.size(); ++i) {
          if (i) members += ", ";
          members += view.devices()[pair[i]].device->name();
        }
        report.add(sev, id(), view.node_label(node),
                   "source-coupled pair {" + members +
                       "} shares this source node but nothing biases it "
                       "(no tail device, current source or resistor)");
      }
    }
  }
};

class WeakInversionRule final : public Rule {
 public:
  const char* id() const override { return "weak-inversion-bias"; }
  const char* description() const override {
    return "tail currents must keep source-coupled pairs in weak inversion";
  }

  void run(const LintContext& ctx, Report& report) const override {
    if (!ctx.view || !ctx.ir) return;
    const CircuitView& view = *ctx.view;
    // Interval facts, when op-region is in the run set: per-device IC
    // bounds sound over the PVT box, strictly sharper than the
    // worst-case Iss/Ispec estimate below.
    const OpRegionResult* facts = ctx.op_region;
    const std::vector<SourceCoupledGroup>& groups = ctx.ir->source_groups;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (shadowed(groups, g)) continue;
      const spice::NodeId node = groups[g].source;
      const std::span<const int> pair = groups[g].devices;
      // Total DC tail current supplied by current sources at the node.
      double iss = 0.0;
      bool has_isource = false;
      for (const CircuitView::Incidence& inc : view.incidences(node)) {
        if (inc.edge < 0) continue;
        const spice::DcEdge& e =
            view.devices()[inc.device].info.edges[inc.edge];
        if (e.coupling == spice::DcCoupling::kCurrent) {
          has_isource = true;
          iss += std::fabs(e.value);
        }
      }
      if (has_isource && iss == 0.0) {
        report.info(id(), view.node_label(node),
                    "tail current source has zero DC value; the pair only "
                    "conducts leakage at the operating point");
        continue;
      }

      // Interval path: warn only when the IC bound proves the device
      // leaves weak inversion at every corner (ic.lo > 10). The
      // "unproven" middle ground is the op-region pass's business.
      bool interval_handled = false;
      if (facts != nullptr && !facts->regions.empty()) {
        for (const int di : pair) {
          const DeviceRegion* reg = facts->region_of(di);
          if (reg == nullptr || reg->ic.is_empty()) continue;
          interval_handled = true;
          if (reg->ic.lo > 10.0) {
            report.warning(
                id(), view.node_label(node),
                "interval analysis bounds the inversion coefficient of " +
                    view.devices()[di].device->name() + " to [" +
                    util::format_si(reg->ic.lo, "", 3) + ", " +
                    util::format_si(reg->ic.hi, "", 3) +
                    "] — outside the EKV weak-inversion region (IC <~ 10) "
                    "at every corner of the box");
          }
        }
      }
      if (interval_handled) continue;

      if (!has_isource) continue;  // tail is a mirror device: bias unknown

      double ispec_min = 0.0;
      std::string worst;
      for (const int di : pair) {
        const CircuitView::DeviceDesc& info = view.devices()[di].info;
        if (info.ispec <= 0.0) continue;
        if (ispec_min == 0.0 || info.ispec < ispec_min) {
          ispec_min = info.ispec;
          worst = view.devices()[di].device->name();
        }
      }
      if (ispec_min <= 0.0) continue;

      // Worst case the whole tail current flows through one branch.
      const double ic = iss / ispec_min;
      if (ic > 10.0) {
        report.warning(
            id(), view.node_label(node),
            "tail current " + std::to_string(iss) +
                " A biases " + worst + " at inversion coefficient " +
                std::to_string(ic) +
                " — outside the EKV weak-inversion region (IC <~ 10)");
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_unbiased_tail_rule() {
  return std::make_unique<UnbiasedTailRule>();
}

std::unique_ptr<Rule> make_weak_inversion_rule() {
  return std::make_unique<WeakInversionRule>();
}

}  // namespace sscl::lint::rules
