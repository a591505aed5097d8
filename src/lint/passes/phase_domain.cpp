/// Whole-pipeline clock-phase domain check. The paper's two-phase
/// latch pipelining (Section III-B) relies on alternating transparency:
/// a value sampled on phase A must pass through a phase-B latch before
/// it can reach another phase-A latch, otherwise both ends of the path
/// are transparent in the same half-cycle and data races through two
/// pipeline ranks at once. The local latch-phase rule catches the
/// direct latch-to-latch case; this pass colours every signal with the
/// phase domain(s) of the latches its combinational cone starts from
/// (a forward dataflow over the phase lattice Bottom ⊑ {A, B} ⊑ Top)
/// and flags latches whose data cone reaches them from a same-phase
/// latch *through* combinational logic — races the local rule cannot
/// see. Primary-input cones are Bottom and never race.

#include <string>
#include <vector>

#include "digital/netlist.hpp"
#include "lint/dataflow.hpp"
#include "lint/ir.hpp"
#include "lint/lattice.hpp"
#include "lint/rules/rules.hpp"

namespace sscl::lint::rules {

namespace {

class PhaseDomainPass final : public Rule {
 public:
  const char* id() const override { return "phase-domain"; }
  const char* description() const override {
    return "colour every signal with its source latch phases and flag "
           "same-phase races through combinational logic";
  }

  void run(const LintContext& ctx, Report& report) const override {
    if (!ctx.netlist || !ctx.ir || !ctx.ir->wiring_ok) return;
    const digital::Netlist& nl = *ctx.netlist;
    const AnalysisIR& ir = *ctx.ir;
    if (nl.latch_count() == 0) return;
    const auto& gates = nl.gates();
    const int signals = nl.signal_count();

    // Forward colouring: a latch output is its own phase; a
    // combinational output joins the colours of its data inputs.
    std::vector<PhaseColor> color(signals, PhaseLattice::bottom());
    std::vector<std::vector<int>> succs(signals);
    for (int s = 0; s < signals; ++s) {
      for (const int gi : ir.consumers[s]) {
        const digital::Gate& g = gates[gi];
        if (digital::is_latching(g.kind)) continue;  // colour is fixed
        if (g.out != s) succs[s].push_back(g.out);
      }
    }
    solve_dataflow(succs, color, [&](int s) -> PhaseColor {
      const int gi = nl.driver_of(s);
      if (gi < 0) return PhaseLattice::bottom();
      const digital::Gate& g = gates[gi];
      if (digital::is_latching(g.kind)) {
        return PhaseLattice::of_phase(g.clock_phase);
      }
      PhaseColor c = PhaseLattice::bottom();
      for (int i = 0; i < digital::input_count(g.kind); ++i) {
        c = PhaseLattice::join(c, color[g.in[i].sig]);
      }
      return c;
    });

    for (const digital::Gate& g : gates) {
      if (!digital::is_latching(g.kind)) continue;
      bool direct = false;  // the latch-phase rule already reports these
      PhaseColor cone = PhaseLattice::bottom();
      for (int i = 0; i < digital::input_count(g.kind); ++i) {
        const digital::SignalId sig = g.in[i].sig;
        cone = PhaseLattice::join(cone, color[sig]);
        const int driver = nl.driver_of(sig);
        if (driver >= 0 && digital::is_latching(gates[driver].kind) &&
            gates[driver].clock_phase == g.clock_phase) {
          direct = true;
        }
      }
      if (direct || !PhaseLattice::includes(cone, g.clock_phase)) continue;
      report.warning(
          id(), g.name,
          "data cone reaches this latch from a same-phase latch through "
          "combinational logic; both ends are transparent in the same "
          "half-cycle, so data can race through two pipeline ranks",
          "insert an opposite-phase latch in the path or move this latch "
          "to the other clock phase");
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_phase_domain_pass() {
  return std::make_unique<PhaseDomainPass>();
}

}  // namespace sscl::lint::rules
