#include "lint/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <optional>
#include <string_view>

#include "digital/netlist.hpp"
#include "lint/circuit_view.hpp"
#include "lint/ir.hpp"
#include "lint/op_region.hpp"
#include "lint/rule.hpp"
#include "spice/circuit.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"

namespace sscl::lint {

namespace {

bool listed(const std::vector<std::string>& ids, std::string_view id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

/// A pass runs unless disabled and, when `only` names passes, only if
/// it is named there.
bool selected(const Options& options, const char* id) {
  return !listed(options.disabled, id) &&
         (options.only.empty() || listed(options.only, id));
}

bool has_mosfet(const CircuitView& view) {
  for (const CircuitView::DeviceEntry& entry : view.devices()) {
    if (entry.info.is_mosfet) return true;
  }
  return false;
}

/// One lint run over a circuit view or a gate netlist. It builds the
/// connectivity IR every pass shares, then the interval operating point
/// when op-region is selected and the circuit has a MOSFET, then runs
/// the selected passes on the calling thread in registration order,
/// which is the reporting order. A pass that throws ends as one
/// pass-failure error under its own id; when the interval analysis
/// throws, that error is op-region's, and weak-inversion-bias falls
/// back to its local estimate.
Report run_passes(const CircuitView* view, const digital::Netlist* netlist,
                  const Options& options) {
  const std::vector<std::unique_ptr<Rule>> passes = make_default_passes();
  trace::Span span("lint.run", "lint");
  const AnalysisIR ir = view      ? AnalysisIR::build(*view)
                        : netlist ? AnalysisIR::build(*netlist)
                                  : AnalysisIR{};
  LintContext ctx;
  ctx.view = view;
  ctx.netlist = netlist;
  ctx.ir = &ir;
  ctx.bias_budget = options.bias_budget;

  std::optional<OpRegionResult> op_region;
  std::exception_ptr op_region_failure;
  if (view && selected(options, "op-region") && has_mosfet(*view)) {
    trace::Span analysis("lint.op_region", "lint");
    try {
      op_region = analyze_op_region(
          *view, ir, {options.t_lo_k, options.t_hi_k, options.vdd_tol});
      ctx.op_region = &*op_region;
      static trace::Counter f_evals("lint.op_region.ekv_f_evals");
      static trace::Counter kcl_steps("lint.op_region.kcl_steps");
      static trace::Counter swing_steps("lint.op_region.swing_steps");
      f_evals.add(op_region->stats.ekv_f_evals);
      kcl_steps.add(op_region->stats.kcl_steps);
      swing_steps.add(op_region->stats.swing_steps);
    } catch (...) {
      op_region_failure = std::current_exception();
    }
  }

  Report all;
  long long passes_run = 0;
  for (const auto& pass : passes) {
    if (!selected(options, pass->id())) continue;
    ++passes_run;
    trace::Span pass_span(pass->id(), "lint.pass");
    try {
      if (op_region_failure && std::strcmp(pass->id(), "op-region") == 0) {
        std::rethrow_exception(op_region_failure);
      }
      pass->run(ctx, all);
    } catch (const std::exception& e) {
      all.error("pass-failure", pass->id(),
                std::string("pass threw: ") + e.what());
    } catch (...) {
      all.error("pass-failure", pass->id(), "pass threw a non-exception");
    }
  }
  static trace::Counter findings("lint.findings");
  static trace::Counter passes_counter("lint.passes_run");
  findings.add(static_cast<long long>(all.diagnostics().size()));
  passes_counter.add(passes_run);
  return all;
}

/// Filter again by diagnostic id: family rules (dc-path) emit diagnostics
/// under per-cause ids (floating-node, ...), and both must be disableable.
Report filtered(Report all, const Options& options) {
  if (options.include_info && options.disabled.empty()) return all;
  Report kept;
  for (const Diagnostic& d : all.diagnostics()) {
    if (!options.include_info && d.severity == Severity::kInfo) continue;
    if (listed(options.disabled, d.rule)) continue;
    kept.add(d.severity, d.rule, d.location, d.message, d.fix);
  }
  return kept;
}

}  // namespace

Report check_circuit(const spice::Circuit& circuit, const Options& options) {
  const CircuitView view(circuit);
  return filtered(run_passes(&view, nullptr, options), options);
}

Report check_netlist(const digital::Netlist& netlist, const Options& options) {
  return filtered(run_passes(nullptr, &netlist, options), options);
}

Report check_ladder_taps(const std::vector<double>& taps, double v_bottom,
                         double v_top) {
  Report report;
  const char* id = "ladder-taps";
  for (std::size_t i = 0; i < taps.size(); ++i) {
    if (!std::isfinite(taps[i])) {
      report.error(id, "tap " + std::to_string(i),
                   "ladder tap is not finite");
      return report;
    }
  }
  for (std::size_t i = 1; i < taps.size(); ++i) {
    if (taps[i] <= taps[i - 1]) {
      report.error(id, "tap " + std::to_string(i),
                   "ladder taps are not strictly increasing (" +
                       std::to_string(taps[i - 1]) + " then " +
                       std::to_string(taps[i]) + ")");
    }
  }
  if (v_bottom <= v_top && !taps.empty()) {
    if (taps.front() < v_bottom || taps.back() > v_top) {
      report.error(id, "-",
                   "ladder taps leave the [" + std::to_string(v_bottom) +
                       ", " + std::to_string(v_top) + "] reference span");
    }
  }
  return report;
}

void enforce(const Report& report, const char* what) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.severity == Severity::kWarning) {
      util::log_warn("lint(", what, "): [", d.rule, "] ", d.location, ": ",
                     d.message);
    }
  }
  if (!report.clean()) throw LintError(report);
}

void enforce_circuit(const spice::Circuit& circuit, const Options& options) {
  // The interval fixpoint is a whole-circuit analysis; simulation setup
  // (Engine construction, Monte-Carlo loops) only needs the fast
  // structural gate, so the op-region pass runs in explicit lint
  // invocations (check_circuit / sscl-lint), not on this hot path.
  Options fast = options;
  fast.disabled.push_back("op-region");
  enforce(check_circuit(circuit, fast), "circuit");
}

void enforce_netlist(const digital::Netlist& netlist, const Options& options) {
  enforce(check_netlist(netlist, options), "netlist");
}

}  // namespace sscl::lint
