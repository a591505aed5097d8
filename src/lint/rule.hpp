#pragma once

/// \file rule.hpp
/// The pass interface of the static analyzer. Every check — the local
/// pattern-match ERC/DRC rules and the interprocedural dataflow passes
/// alike — is a Rule subclass living in its own translation unit under
/// src/lint/rules/ or src/lint/passes/; adding one means writing that
/// file and listing its factory in registry.cpp. Passes read the
/// prepared LintContext (the shared AnalysisIR and, for circuits, the
/// interval operating point) and append Diagnostics to a Report — they
/// never mutate the design. check.cpp runs them one after another in
/// registration order.

#include <memory>
#include <vector>

#include "lint/circuit_view.hpp"
#include "lint/diagnostic.hpp"

namespace sscl::digital {
class Netlist;
}

namespace sscl::lint {

struct AnalysisIR;
struct OpRegionResult;

/// What a lint run is looking at. Analog passes no-op when view is
/// null, digital passes when netlist is null, so one registry serves
/// both check_circuit() and check_netlist(). `ir` is the shared
/// connectivity IR (ir.hpp), built once before any pass runs; it is
/// non-null whenever view or netlist is.
struct LintContext {
  const CircuitView* view = nullptr;
  const digital::Netlist* netlist = nullptr;
  const AnalysisIR* ir = nullptr;
  /// Interval operating-point facts (op_region.hpp) over the run's PVT
  /// box: node voltages, device regions, pair certification inputs.
  /// Built before any pass runs when op-region is in the run set and
  /// the circuit has a MOSFET; null otherwise, or when the analysis
  /// threw. The op-region pass reports them and weak-inversion-bias
  /// prefers them to its local estimate.
  const OpRegionResult* op_region = nullptr;
  /// Bias-current budget [A] for the provenance pass (0 = no budget
  /// declared; the pass then reports the estimate as info only).
  double bias_budget = 0.0;
};

class Rule {
 public:
  virtual ~Rule() = default;
  Rule() = default;
  Rule(const Rule&) = delete;
  Rule& operator=(const Rule&) = delete;

  /// Stable kebab-case identifier ("floating-node").
  virtual const char* id() const = 0;
  /// One-line human description for --list-passes and docs.
  virtual const char* description() const = 0;
  virtual void run(const LintContext& ctx, Report& report) const = 0;
};

/// Every built-in pass, in reporting order: the 13 original local rules
/// followed by the interprocedural dataflow passes.
std::vector<std::unique_ptr<Rule>> make_default_passes();

}  // namespace sscl::lint
