#pragma once

/// \file check.hpp
/// Entry points of the ERC/DRC static analyzer. check_circuit() and
/// check_netlist() run the default rule set and return a Report;
/// the enforce_* variants are what Engine and EventSim call before
/// simulating — they log warnings and throw LintError on errors so a
/// singular matrix or oscillating event loop is diagnosed up front
/// instead of surfacing as a numerical mystery.

#include <string>
#include <vector>

#include "lint/diagnostic.hpp"

namespace sscl::spice {
class Circuit;
}
namespace sscl::digital {
class Netlist;
}

namespace sscl::lint {

struct Options {
  /// Keep kInfo diagnostics in the report (they never gate anything).
  bool include_info = true;
  /// Rule ids to skip, e.g. {"weak-inversion-bias"}.
  std::vector<std::string> disabled;
  /// When non-empty, run only these passes.
  std::vector<std::string> only;
  /// Bias-current budget [A] for the bias-provenance pass (0 = none
  /// declared; the estimate is then reported as info only).
  double bias_budget = 0.0;
  /// PVT box for the op-region interval pass: temperature corners [K]
  /// and relative tolerance on supply-named voltage sources. The
  /// defaults certify the nominal corner only, so reports stay
  /// byte-identical run to run unless corners are asked for.
  double t_lo_k = 300.15;
  double t_hi_k = 300.15;
  double vdd_tol = 0.0;
};

/// Run all analog ERC rules over an elaborated circuit.
Report check_circuit(const spice::Circuit& circuit, const Options& options = {});

/// Run all digital DRC rules over a gate netlist.
Report check_netlist(const digital::Netlist& netlist, const Options& options = {});

/// Check a resistive-ladder tap vector for monotonicity and range —
/// shared by the bias-ladder ERC and flash-ADC reference checks.
/// v_bottom/v_top bound the expected span (pass v_bottom > v_top to
/// skip the range check).
Report check_ladder_taps(const std::vector<double>& taps, double v_bottom,
                         double v_top);

/// Log warnings via util::log and throw LintError if the report has
/// errors. Used by Engine / EventSim setup (opt-out via their flags).
void enforce(const Report& report, const char* what);

/// check_circuit + enforce.
void enforce_circuit(const spice::Circuit& circuit, const Options& options = {});
/// check_netlist + enforce.
void enforce_netlist(const digital::Netlist& netlist, const Options& options = {});

}  // namespace sscl::lint
