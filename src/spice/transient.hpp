#pragma once

/// \file transient.hpp
/// Variable-step transient analysis with trapezoidal integration,
/// predictor-based local truncation error control and source breakpoint
/// handling. Backward Euler is used for the first step and immediately
/// after each breakpoint (discontinuity damping).

#include <functional>

#include "spice/engine.hpp"
#include "spice/waveform.hpp"

namespace sscl::spice {

struct TransientOptions {
  double tstop = 0.0;        ///< end time [s] (required)
  double dt_max = 0.0;       ///< 0 = auto (tstop / 50)
  IntegrationMethod method = IntegrationMethod::kTrapezoidal;
  /// Called after every accepted step (and for the t=0 point) with the
  /// accepted time and full unknown vector. Return false to abort the
  /// analysis: run_transient then throws TransientAborted. Used by
  /// sscl-serve for incremental waveform streaming and cooperative
  /// cancellation/timeout (docs/SERVE.md); the callback must not touch
  /// the engine. Leave empty for the classic run-to-completion analysis.
  std::function<bool(double t, const std::vector<double>& x)> on_accept;
};

/// Thrown when TransientOptions::on_accept asked the analysis to stop.
/// Distinct from ConvergenceError: the circuit was fine, the caller
/// cancelled.
class TransientAborted : public std::runtime_error {
 public:
  TransientAborted() : std::runtime_error("transient: aborted by caller") {}
};

/// Run a transient simulation of the circuit behind \p engine.
/// Returns the recorded waveform (all node voltages at every accepted
/// point, starting with t = 0). Throws ConvergenceError if the timestep
/// underflows and TransientAborted if on_accept returned false.
Waveform run_transient(Engine& engine, const TransientOptions& options);

}  // namespace sscl::spice
