/// Constant and dead-net propagation through the EventSim gate models.
/// STSCL logic burns its tail current Iss * VDD whether or not the gate
/// ever switches, so a gate that provably computes a constant — or that
/// only feeds constant/dead logic — is pure static power.
///
/// Constants are folded through digital::eval_comb, the *same* truth
/// functions EventSim evaluates, over the four-point lattice Bottom ⊑
/// {0, 1} ⊑ Top. A gate's output is constant when every assignment of
/// its unknown (Top) input signals produces the same value; unknowns
/// are enumerated per distinct signal, so shared-input identities like
/// x XOR x = 0, x AND ~x = 0 and mux(s, a, a) = a fold even though no
/// input is constant. A backward liveness pass (two-point lattice) then
/// marks the cone that can still influence a block output; driven,
/// consumed gates outside that cone are dead nets.
///
/// For latching kinds the transparent function is folded: a latch with
/// constant data holds that constant once its phase has been active
/// once ("constant after the first transparent phase").

#include <array>
#include <string>
#include <vector>

#include "digital/netlist.hpp"
#include "lint/dataflow.hpp"
#include "lint/ir.hpp"
#include "lint/lattice.hpp"
#include "lint/rules/rules.hpp"

namespace sscl::lint::rules {

namespace {

class ConstNetPass final : public Rule {
 public:
  const char* id() const override { return "const-net"; }
  const char* description() const override {
    return "fold constants through the simulator's gate models and flag "
           "constant outputs and transitively dead nets";
  }

  void run(const LintContext& ctx, Report& report) const override {
    if (!ctx.netlist || !ctx.ir || !ctx.ir->wiring_ok) return;
    const digital::Netlist& nl = *ctx.netlist;
    const AnalysisIR& ir = *ctx.ir;
    const auto& gates = nl.gates();
    const int signals = nl.signal_count();
    if (gates.empty()) return;

    // ---- forward constant propagation ---------------------------------
    // Primary inputs, the clock and undriven wires are Top (free);
    // gate-driven signals start at Bottom and rise monotonically.
    std::vector<ConstValue> value(signals, ConstValue::kTop);
    std::vector<std::vector<int>> succs(signals);
    for (int s = 0; s < signals; ++s) {
      if (nl.driver_of(s) >= 0) value[s] = ConstLattice::bottom();
      for (const int gi : ir.consumers[s]) {
        const digital::SignalId out = gates[gi].out;
        if (out >= 0 && out < signals && out != s) succs[s].push_back(out);
      }
    }

    auto fold_gate = [&](const digital::Gate& g) -> ConstValue {
      const int n = digital::input_count(g.kind);
      // Distinct unknown input signals become enumeration variables.
      std::array<digital::SignalId, 4> unknown{};
      int unknowns = 0;
      for (int i = 0; i < n; ++i) {
        const digital::SignalId sig = g.in[i].sig;
        const ConstValue v = value[sig];
        if (v == ConstValue::kBottom) return ConstValue::kBottom;
        if (v != ConstValue::kTop) continue;
        bool seen = false;
        for (int u = 0; u < unknowns; ++u) seen = seen || unknown[u] == sig;
        if (!seen) unknown[unknowns++] = sig;
      }
      ConstValue out = ConstLattice::bottom();
      for (int combo = 0; combo < (1 << unknowns); ++combo) {
        std::array<bool, 4> in{};
        for (int i = 0; i < n; ++i) {
          const digital::SignalId sig = g.in[i].sig;
          bool bit = false;
          if (value[sig] == ConstValue::kTop) {
            for (int u = 0; u < unknowns; ++u) {
              if (unknown[u] == sig) bit = (combo >> u) & 1;
            }
          } else {
            bit = value[sig] == ConstValue::kOne;
          }
          in[i] = bit != g.in[i].neg;
        }
        out = ConstLattice::join(out, ConstLattice::of_bool(
                                          digital::eval_comb(g.kind, in)));
        if (out == ConstValue::kTop) break;
      }
      return out;
    };

    solve_dataflow(succs, value, [&](int s) -> ConstValue {
      const int gi = nl.driver_of(s);
      if (gi < 0) return ConstValue::kTop;
      return fold_gate(gates[gi]);
    });

    // ---- backward liveness --------------------------------------------
    // Roots: driven signals nobody consumes (the block's observable
    // outputs). Influence flows from a gate's output back to its inputs
    // unless the output already folded to a constant.
    // A closed netlist (every signal fed back, e.g. a free-running
    // counter) has no fanout-free root; liveness is then undefined and
    // the dead-net check is skipped rather than flagging everything.
    bool has_root = false;
    for (int s = 0; s < signals && !has_root; ++s) {
      has_root = nl.fanout_of(s) == 0 && nl.driver_of(s) >= 0;
    }

    std::vector<bool> live(signals, TaintLattice::bottom());
    std::vector<std::vector<int>> live_succs(signals);
    for (const digital::Gate& g : gates) {
      for (int i = 0; i < digital::input_count(g.kind); ++i) {
        if (g.in[i].sig != g.out) live_succs[g.out].push_back(g.in[i].sig);
      }
    }
    solve_dataflow(live_succs, live, [&](int s) -> bool {
      if (nl.fanout_of(s) == 0) return true;
      for (const int gi : ir.consumers[s]) {
        const digital::SignalId out = gates[gi].out;
        if (live[out] && !ConstLattice::is_const(value[out])) return true;
      }
      return false;
    });

    // ---- findings -----------------------------------------------------
    for (const digital::Gate& g : gates) {
      const ConstValue v = value[g.out];
      if (ConstLattice::is_const(v)) {
        report.warning(
            id(), g.name,
            "output '" + nl.signal_name(g.out) + "' is constant " +
                (v == ConstValue::kOne ? "1" : "0") +
                " after folding through the simulator's gate model; the "
                "gate still burns its tail current",
            "tie the consumers to the constant and delete the gate, or "
            "fix the input polarity if the constant is unintended");
      } else if (has_root && !live[g.out] && nl.fanout_of(g.out) > 0) {
        report.warning("dead-net", g.name,
                       "output '" + nl.signal_name(g.out) +
                           "' feeds only constant or dead logic; the whole "
                           "cone is static power with no observable effect",
                       "delete the cone or reconnect it to a real output");
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_const_net_pass() {
  return std::make_unique<ConstNetPass>();
}

}  // namespace sscl::lint::rules
