/// Voltage-domain inference. Multi-VDD STSCL systems (the paper's
/// mixed-signal platform runs analog and digital blocks from separate
/// rails) need every net assigned to the supply domain(s) that can
/// reach it, so that signals crossing between domains without a level
/// shifter can be flagged — a subthreshold gate driven from a
/// different-VDD domain sees shifted switching thresholds and can leak
/// or mis-evaluate.
///
/// The pass runs a powerset-lattice dataflow over the net graph: each
/// supply rail (see is_supply_name) seeds one domain bit; domain masks
/// propagate along conductive and rigid couplings (not through ground,
/// which is common to all domains). A MOSFET whose gate net's domains
/// are disjoint from its channel's domains is a crossing; devices named
/// as level shifters (mls*/xls* or containing "_ls") are the sanctioned
/// crossing points. Rails that end up conductively connected to each
/// other are reported too — that collapses two domains into one.

#include <cctype>
#include <string>
#include <vector>

#include "lint/dataflow.hpp"
#include "lint/ir.hpp"
#include "lint/lattice.hpp"
#include "lint/rules/rules.hpp"
#include "util/units.hpp"

namespace sscl::lint::rules {

namespace {

/// True for device names that follow the level-shifter convention.
bool is_level_shifter_name(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower += static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower.rfind("mls", 0) == 0 || lower.rfind("xls", 0) == 0) return true;
  return lower.find("_ls") != std::string::npos;
}

class DomainCrossingPass final : public Rule {
 public:
  const char* id() const override { return "domain-crossing"; }
  const char* description() const override {
    return "infer supply domains for every net and flag signals that "
           "cross domains without a level shifter";
  }

  void run(const LintContext& ctx, Report& report) const override {
    if (!ctx.view || !ctx.ir) return;
    const CircuitView& view = *ctx.view;
    const AnalysisIR& ir = *ctx.ir;
    if (ir.supplies.size() < 2) return;  // one rail: nothing can cross

    std::size_t rail_count = ir.supplies.size();
    if (rail_count > DomainSetLattice::kMaxDomains) {
      report.info(id(), "-",
                  "circuit has " + std::to_string(rail_count) +
                      " supply rails; only the first " +
                      std::to_string(DomainSetLattice::kMaxDomains) +
                      " seed voltage domains");
      rail_count = DomainSetLattice::kMaxDomains;
    }

    const int slots = view.slot_count();
    std::vector<std::uint64_t> seed(slots, DomainSetLattice::bottom());
    for (std::size_t i = 0; i < rail_count; ++i) {
      seed[CircuitView::slot(ir.supplies[i].node)] |=
          DomainSetLattice::singleton(static_cast<int>(i));
    }

    // Domain masks spread over conductive + rigid couplings; ground is
    // shared by every domain and must not merge them.
    const int ground = CircuitView::slot(spice::kGround);
    auto spreads = [&](int s, const NetEdge& e) {
      return s != ground && e.coupling != spice::DcCoupling::kCurrent &&
             e.to_slot != ground;
    };
    Csr<int> succs;
    succs.reset(slots);
    for (int s = 0; s < slots; ++s) {
      for (const NetEdge& e : ir.net_edges[s]) {
        if (spreads(s, e)) succs.count(s);
      }
    }
    succs.layout();
    for (int s = 0; s < slots; ++s) {
      for (const NetEdge& e : ir.net_edges[s]) {
        if (spreads(s, e)) succs.push(s, e.to_slot);
      }
    }

    std::vector<std::uint64_t> domains(slots, DomainSetLattice::bottom());
    solve_dataflow(succs, domains, [&](int v) -> std::uint64_t {
      if (v == ground) return DomainSetLattice::bottom();
      std::uint64_t mask = seed[v];
      for (const NetEdge& e : ir.net_edges[v]) {
        if (e.coupling == spice::DcCoupling::kCurrent) continue;
        if (e.to_slot == ground) continue;
        mask = DomainSetLattice::join(mask, domains[e.to_slot]);
      }
      return mask;
    });

    auto domain_names = [&](std::uint64_t mask) {
      std::string names;
      for (std::size_t i = 0; i < rail_count; ++i) {
        if (!(mask & DomainSetLattice::singleton(static_cast<int>(i)))) {
          continue;
        }
        if (!names.empty()) names += "+";
        names += ir.supplies[i].name;
      }
      return names.empty() ? std::string("none") : names;
    };

    // ---- rails conductively shorted together --------------------------
    for (std::size_t i = 0; i < rail_count; ++i) {
      const SupplyRail& rail = ir.supplies[i];
      const std::uint64_t mask = domains[CircuitView::slot(rail.node)];
      if (DomainSetLattice::count(mask) > 1) {
        report.warning(
            id(), view.node_label(rail.node),
            "supply rail " + rail.name + " (" +
                util::format_si(rail.voltage, "V", 3) +
                ") is conductively connected to domain(s) " +
                domain_names(mask & ~DomainSetLattice::singleton(
                                        static_cast<int>(i))) +
                "; the domains collapse into one",
            "separate the rails, or rename one source if they are "
            "intentionally the same domain");
      }
    }

    // ---- gate-to-channel crossings ------------------------------------
    const auto& devices = view.devices();
    for (std::size_t di = 0; di < devices.size(); ++di) {
      const CircuitView::DeviceDesc& info = devices[di].info;
      if (!info.is_mosfet) continue;
      const std::string& name = devices[di].device->name();
      if (is_level_shifter_name(name)) continue;

      const std::uint64_t gate = domains[CircuitView::slot(info.mos_g)];
      const std::uint64_t channel = DomainSetLattice::join(
          DomainSetLattice::join(domains[CircuitView::slot(info.mos_d)],
                                 domains[CircuitView::slot(info.mos_s)]),
          domains[CircuitView::slot(info.mos_b)]);
      if (gate != DomainSetLattice::bottom() &&
          channel != DomainSetLattice::bottom() &&
          DomainSetLattice::disjoint(gate, channel)) {
        report.warning(
            id(), name,
            "gate is driven from domain " + domain_names(gate) +
                " but the channel operates in domain " +
                domain_names(channel) +
                "; the crossing has no level shifter, so the gate sees "
                "the wrong switching threshold",
            "insert a level shifter (name it ls*, e.g. mls1/xls_core) "
            "at the domain boundary");
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_domain_crossing_pass() {
  return std::make_unique<DomainCrossingPass>();
}

}  // namespace sscl::lint::rules
