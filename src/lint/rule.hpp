#pragma once

/// \file rule.hpp
/// The pass interface of the static analyzer. Every check — the local
/// pattern-match ERC/DRC rules and the interprocedural dataflow passes
/// alike — is a Rule subclass living in its own translation unit under
/// src/lint/rules/ or src/lint/passes/; adding one means writing that
/// file and listing its factory in registry.cpp. Passes read the
/// prepared LintContext (including the shared AnalysisIR) and append
/// Diagnostics to a Report — they never mutate the design. A pass may
/// declare dependencies on other pass ids; the PassManager (pass.hpp)
/// schedules accordingly and runs independent passes in parallel.

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

/// Facts deposited by passes for their dependents. The PassManager
/// creates one store per run; a pass that declares depends_on() an
/// upstream pass id observes that pass's published facts (wave
/// barriers give the happens-before edge). Facts are shared_ptr so a
/// consumer can hold them past the producing pass's Report merge.
struct PassFacts {
  /// Published by the op-region pass: interval operating-point facts
  /// (node voltages, device regions, pair certification inputs).
  std::shared_ptr<const OpRegionResult> op_region;
};

/// What a lint run is looking at. Analog passes no-op when view is
/// null, digital passes when netlist is null, so one registry serves
/// both check_circuit() and check_netlist(). `ir` is the shared
/// connectivity IR (ir.hpp), built once by the PassManager before any
/// pass runs; it is non-null whenever view or netlist is.
struct LintContext {
  const CircuitView* view = nullptr;
  const digital::Netlist* netlist = nullptr;
  const AnalysisIR* ir = nullptr;
  /// Per-run fact store (created by the PassManager; null only when a
  /// Rule is driven directly outside the manager).
  PassFacts* facts = nullptr;
  /// Bias-current budget [A] for the provenance pass (0 = no budget
  /// declared; the pass then reports the estimate as info only).
  double bias_budget = 0.0;
  /// PVT box for the op-region pass: temperature corners [K] and the
  /// relative tolerance applied to supply-named voltage sources.
  /// Defaults describe the nominal corner only.
  double t_lo_k = 300.15;
  double t_hi_k = 300.15;
  double vdd_tol = 0.0;
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
  /// Ids of passes that must complete before this one runs. Ordering
  /// only — depending on a pass does not force it into the run set.
  /// The returned pointers must be string literals.
  virtual std::vector<const char*> depends_on() const { return {}; }
  virtual void run(const LintContext& ctx, Report& report) const = 0;
};

/// Every built-in pass, in reporting order: the 13 original local rules
/// followed by the interprocedural dataflow passes.
std::vector<std::unique_ptr<Rule>> make_default_passes();

}  // namespace sscl::lint
