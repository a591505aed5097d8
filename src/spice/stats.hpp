#pragma once

/// \file stats.hpp
/// EngineStats: observability counters for the phased MNA evaluation
/// pipeline (see docs/ENGINE.md). One instance lives in Engine and
/// accumulates across every analysis run through it; analyses
/// (run_transient, run_dc_sweep, run_ac) add their own step counters.
/// The counters are exact and cost no clock read: the wall time of each
/// phase is in the trace spans (baseline, assemble, factor), which read
/// the clock only while tracing is on.

namespace sscl::spice {

struct EngineStats {
  // ---- Newton / assembly phase ---------------------------------------
  long long newton_iterations = 0;  ///< Newton iterations across all solves
  long long assemblies = 0;         ///< dynamic assembly passes (incl. line search)
  long long baseline_builds = 0;    ///< static-baseline rebuilds (one per solve)
  long long static_loads = 0;       ///< device loads during baseline builds
  long long device_loads = 0;       ///< device loads during dynamic assemblies
  long long device_evals = 0;       ///< full nonlinear model evaluations
  long long bypass_hits = 0;        ///< model evaluations skipped via bypass

  // ---- factor / solve phase ------------------------------------------
  long long factors = 0;            ///< successful LU factorisations
  long long full_factors = 0;       ///< with a fresh pivot search
  long long numeric_refactors = 0;  ///< value-only refreshes (pivots reused)
  long long singular_factors = 0;   ///< factorisations that failed (singular)

  // ---- analysis-level counters ---------------------------------------
  long long op_solves = 0;            ///< solve_op() calls
  long long op_gmin_steps = 0;        ///< gmin-stepping continuation points
  long long op_source_steps = 0;      ///< source-stepping continuation points
  long long transient_steps = 0;      ///< accepted transient timesteps
  long long transient_rejects_lte = 0;     ///< steps rejected by LTE control
  long long transient_rejects_newton = 0;  ///< steps rejected by Newton failure
  long long sweep_points = 0;         ///< DC sweep points solved
  long long ac_points = 0;            ///< AC frequency points solved

  /// Fraction of model-evaluation opportunities served from the bypass
  /// cache: hits / (hits + full evaluations).
  double bypass_rate() const {
    const long long total = bypass_hits + device_evals;
    return total > 0 ? static_cast<double>(bypass_hits) / total : 0.0;
  }

  /// Fraction of successful factorisations that reused the pivot
  /// sequence (numeric-only refresh).
  double numeric_refactor_share() const {
    return factors > 0 ? static_cast<double>(numeric_refactors) / factors : 0.0;
  }

  void reset() { *this = EngineStats{}; }
};

/// Publish every EngineStats field into the trace metric registry
/// (trace/trace.hpp) under "spice.*" counter/gauge names, so `--metrics`
/// exports carry the pipeline counters next to the span timeline.
/// Values are absolute (EngineStats accumulates per engine; with several
/// engines the most recently published one wins). No-op while tracing
/// is disabled. Analyses call this on completion automatically.
void trace_publish(const EngineStats& stats);

/// RAII guard calling trace_publish() on scope exit; analyses hold one
/// so counters are published on success and ConvergenceError alike.
class StatsPublisher {
 public:
  explicit StatsPublisher(const EngineStats& stats) : stats_(stats) {}
  ~StatsPublisher() { trace_publish(stats_); }
  StatsPublisher(const StatsPublisher&) = delete;
  StatsPublisher& operator=(const StatsPublisher&) = delete;

 private:
  const EngineStats& stats_;
};

}  // namespace sscl::spice
