#pragma once

/// \file engine.hpp
/// The nonlinear solve engine shared by every analysis: damped Newton
/// iteration over the MNA system with gmin stepping and source stepping
/// continuation for difficult operating points.
///
/// Evaluation runs as a phased pipeline (see docs/ENGINE.md):
///  1. pattern pass   - every matrix/rhs slot is reserved at construction
///  2. baseline       - static-linear stamps cached once per Newton solve
///  3. device bypass  - nonlinear devices reuse cached evaluations when
///                      their terminal voltages are within tolerance
///  4. factorisation  - the sparse LU reuses the pivot sequence, refreshing
///                      numeric values only, with full-pivoting fallback

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/device.hpp"
#include "spice/linear_system.hpp"
#include "spice/stats.hpp"

namespace sscl::spice {

/// Tolerances and iteration limits. Defaults are tuned for the
/// pico-ampere current levels of subthreshold source-coupled circuits
/// (much tighter than SPICE's 1 pA abstol).
struct SolverOptions {
  double reltol = 1e-4;        ///< relative delta-x tolerance
  double vntol = 1e-7;         ///< absolute node-voltage tolerance [V]
  double itol = 1e-15;         ///< absolute branch-current tolerance [A]
  int max_iterations = 200;    ///< Newton iterations per solve point
  double gmin = 1e-15;         ///< diagonal conductance floor [S]
  double max_step_v = 0.5;     ///< Newton voltage-step damping limit [V]
  /// Run the lint ERC rules over the elaborated circuit before solving;
  /// errors (floating nodes, voltage-source loops, ...) throw
  /// lint::LintError instead of surfacing as convergence mysteries.
  bool lint = true;
};

/// Thrown when an analysis cannot converge.
class ConvergenceError : public std::runtime_error {
 public:
  explicit ConvergenceError(const std::string& what)
      : std::runtime_error(what) {}
};

class Engine {
 public:
  explicit Engine(Circuit& circuit, SolverOptions options = {});

  Circuit& circuit() { return circuit_; }
  const SolverOptions& options() const { return options_; }
  SolverOptions& options() { return options_; }

  /// Suggest an initial guess for a node (SPICE .nodeset).
  void set_nodeset(NodeId node, double voltage) { nodeset_[node] = voltage; }
  void clear_nodesets() { nodeset_.clear(); }

  /// Robust DC operating point: plain Newton, then gmin stepping, then
  /// source stepping. Throws ConvergenceError if all fail.
  Solution solve_op();

  /// Newton solve from the given starting point (modified in place).
  /// Returns true on convergence. Used directly by sweeps and transient.
  bool newton(std::vector<double>& x, AnalysisMode mode, double time,
              IntegrationMethod method, double a0, double gmin,
              double source_scale, int* iterations_out = nullptr);

  /// Restore the engine (and every device) to its just-constructed
  /// condition without repeating elaboration, lint or the pattern pass:
  /// integrator state and nodesets are cleared and device runtime caches
  /// (bypass points, junction limiting history) are invalidated. The
  /// sparse symbolic factorisation is deliberately kept — replaying a
  /// pivot sequence on identical values performs identical arithmetic
  /// (linear_system.cpp), so a reset engine re-runs a deck bit-identically to a
  /// fresh one while skipping the whole elaboration-time pipeline. This
  /// is the contract the sscl-serve elaboration cache is built on
  /// (docs/SERVE.md).
  void reset_runtime();

  /// Run the kInitState pass: devices record integrator state from the
  /// solution x, then the state becomes the "previous timestep" state.
  void initialize_state(const std::vector<double>& x);

  /// Promote the just-solved state to previous (after an accepted step).
  void accept_state();

  std::vector<double> make_initial_guess() const;

  int unknown_count() const { return circuit_.unknown_count(); }

  /// Pipeline observability counters (accumulate; reset with
  /// stats().reset()). Analyses add their step counters here too.
  EngineStats& stats() { return stats_; }
  const EngineStats& stats() const { return stats_; }

  /// Always true (see LinearSystem::is_sparse()); the next change to
  /// the benchmark removes it.
  bool is_sparse() const { return system_.is_sparse(); }

  /// The assembled MNA system. The ensemble engine reads the master
  /// engine's system to adopt its nominal pivot sequence into worker
  /// replicas (LinearSystem::adopt_factorization).
  LinearSystem& linear_system() { return system_; }
  const LinearSystem& linear_system() const { return system_; }

 private:
  bool converged(const std::vector<double>& x,
                 const std::vector<double>& x_old) const;

  Circuit& circuit_;
  SolverOptions options_;
  LinearSystem system_;
  std::vector<double> state_prev_, state_now_;
  std::map<NodeId, double> nodeset_;
  EngineStats stats_;

  /// Gmin diagonal slots, reserved once so the per-iteration floor is a
  /// direct slot write instead of a hashed add.
  std::vector<MatrixSlot> gmin_slots_;
  /// Static/dynamic device partition per stamping mode (raw pointers
  /// into circuit_.devices(), fixed after elaboration).
  std::vector<Device*> static_op_, dynamic_op_;
  std::vector<Device*> static_tr_, dynamic_tr_;
};

}  // namespace sscl::spice
