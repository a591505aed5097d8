#include "spice/engine.hpp"

#include <algorithm>
#include <cmath>

#include "lint/check.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"

namespace sscl::spice {

namespace {

/// Stamp the transient companion of linear charge \p q: its branch
/// current at q = c*v is a0*c*v plus the companion current at zero
/// charge, which depends only on the previous step's state.
void stamp_charge(LoadContext& ctx, const LinearCharge& q) {
  ctx.stamp_conductance(q.slots.g, ctx.integ_a0() * q.c);
  ctx.stamp_current_source(q.slots.i, ctx.charge_current(q.state, 0.0));
}

}  // namespace

void trace_publish(const EngineStats& st) {
  if (!trace::enabled()) return;
  trace::set_counter("spice.newton_iterations", st.newton_iterations);
  trace::set_counter("spice.assemblies", st.assemblies);
  trace::set_counter("spice.baseline_builds", st.baseline_builds);
  trace::set_counter("spice.static_loads", st.static_loads);
  trace::set_counter("spice.device_loads", st.device_loads);
  trace::set_counter("spice.device_evals", st.device_evals);
  trace::set_counter("spice.bypass_hits", st.bypass_hits);
  trace::set_counter("spice.factors", st.factors);
  trace::set_counter("spice.full_factors", st.full_factors);
  trace::set_counter("spice.numeric_refactors", st.numeric_refactors);
  trace::set_counter("spice.singular_factors", st.singular_factors);
  trace::set_counter("spice.op_solves", st.op_solves);
  trace::set_counter("spice.op_gmin_steps", st.op_gmin_steps);
  trace::set_counter("spice.op_source_steps", st.op_source_steps);
  trace::set_counter("spice.transient_steps", st.transient_steps);
  trace::set_counter("spice.transient_rejects_lte", st.transient_rejects_lte);
  trace::set_counter("spice.transient_rejects_newton",
                     st.transient_rejects_newton);
  trace::set_counter("spice.sweep_points", st.sweep_points);
  trace::set_counter("spice.ac_points", st.ac_points);
  trace::set_gauge("spice.bypass_rate", st.bypass_rate());
  trace::set_gauge("spice.numeric_refactor_share",
                   st.numeric_refactor_share());
}

Engine::Engine(Circuit& circuit, SolverOptions options)
    : circuit_(circuit), options_(options), system_(0) {
  circuit_.elaborate();
  if (options_.lint) lint::enforce_circuit(circuit_);
  system_ = LinearSystem(circuit_.unknown_count());
  state_prev_.assign(circuit_.state_count(), 0.0);
  state_now_.assign(circuit_.state_count(), 0.0);
  x_new_.assign(circuit_.unknown_count(), 0.0);

  // Phase 1 (pattern pass): reserve every slot any device will stamp,
  // plus the gmin diagonal, then freeze the pattern and its pointer
  // table.
  const int nodes = circuit_.node_count();
  PatternContext pctx(system_, nodes, charges_);
  for (const auto& device : circuit_.devices()) device->reserve(pctx);
  charges_.shrink_to_fit();
  gmin_slots_.resize(nodes);
  for (int i = 0; i < nodes; ++i) gmin_slots_[i] = system_.reserve(i, i);
  system_.finalize_pattern();

  // Static/dynamic partition per stamping mode (phase 2 input).
  for (const auto& device : circuit_.devices()) {
    Device* d = device.get();
    (d->is_static(AnalysisMode::kDcOp) ? static_op_ : dynamic_op_)
        .push_back(d);
    (d->is_static(AnalysisMode::kTransient) ? static_tr_ : dynamic_tr_)
        .push_back(d);
  }
}

std::vector<double> Engine::make_initial_guess() const {
  std::vector<double> x(circuit_.unknown_count(), 0.0);
  for (const auto& [node, v] : nodeset_) {
    if (node != kGround) x[node] = v;
  }
  return x;
}

bool Engine::finite_and_clamped(std::vector<double>& x_new,
                                const std::vector<double>& x) const {
  const int n = static_cast<int>(x_new.size());
  const int nodes = circuit_.node_count();
  const double max_step = options_.max_step_v;
  // The clamp (damping) stops the exponential devices from overshooting
  // into overflow. Each value is tested before its clamp, which would
  // make an infinite step finite; a non-finite value fails the
  // iteration, so a clamp already applied to x_new is never used.
  for (int i = 0; i < nodes; ++i) {
    if (!std::isfinite(x_new[i])) return false;
    const double step = x_new[i] - x[i];
    if (std::fabs(step) > max_step) {
      x_new[i] = x[i] + std::copysign(max_step, step);
    }
  }
  for (int i = nodes; i < n; ++i) {
    if (!std::isfinite(x_new[i])) return false;
  }
  return true;
}

bool Engine::converged_copy(std::vector<double>& x,
                            const std::vector<double>& x_new) const {
  const int n = static_cast<int>(x.size());
  const int nodes = circuit_.node_count();
  bool conv = true;
  auto test_and_copy = [&](int i, double abstol) {
    const double delta = std::fabs(x_new[i] - x[i]);
    const double magnitude = std::max(std::fabs(x_new[i]), std::fabs(x[i]));
    if (delta > abstol + options_.reltol * magnitude) conv = false;
    x[i] = x_new[i];
  };
  for (int i = 0; i < nodes; ++i) test_and_copy(i, options_.vntol);
  for (int i = nodes; i < n; ++i) test_and_copy(i, options_.itol);
  return conv;
}

bool Engine::newton(std::vector<double>& x, AnalysisMode mode, double time,
                    IntegrationMethod method, double a0, double gmin,
                    double source_scale, int* iterations_out) {
  const int n = circuit_.unknown_count();
  const int nodes = circuit_.node_count();
  LoadContext ctx(system_, nodes, mode);
  ctx.set_stats(&stats_);
  ctx.set_bypass_tol(options_.reltol, options_.vntol);

  const std::vector<Device*>& dynamics =
      mode == AnalysisMode::kTransient ? dynamic_tr_ : dynamic_op_;

  bool first = true;
  auto configure = [&](const std::vector<double>& at) {
    ctx.set_mode(mode);
    ctx.configure(&at, &at, &state_now_, &state_prev_, time, gmin,
                  source_scale, first, method, a0);
  };

  trace::Span newton_span("newton", "newton");

  {
    // Phase 2 (baseline): everything constant across this solve --
    // static-linear device stamps, in transient the linear-charge
    // companions, and the gmin diagonal -- is assembled once and
    // snapshotted; each iteration starts from a copy of it.
    trace::Span span("baseline", "device-eval");
    const std::vector<Device*>& statics =
        mode == AnalysisMode::kTransient ? static_tr_ : static_op_;
    system_.clear();
    configure(x);
    for (Device* d : statics) d->load(ctx);
    if (mode == AnalysisMode::kTransient) {
      for (const LinearCharge& q : charges_) stamp_charge(ctx, q);
    }
    for (int i = 0; i < nodes; ++i) system_.add_at(gmin_slots_[i], gmin);
    system_.snapshot_baseline();
    ++stats_.baseline_builds;
    stats_.static_loads += static_cast<long long>(statics.size());
  }

  // Phase 3 (dynamic loads): nonlinear devices restamp on top of the
  // baseline, bypassing their model evaluation when their terminals
  // stayed within the Newton tolerance.
  auto assemble = [&](const std::vector<double>& at) {
    trace::Span span("assemble", "device-eval");
    system_.restore_baseline();
    configure(at);
    for (Device* d : dynamics) d->load(ctx);
    stats_.device_loads += static_cast<long long>(dynamics.size());
    ++stats_.assemblies;
    first = false;
  };

  auto solve_system = [&](std::vector<double>& out) {
    trace::Span span("factor", "factor");
    const bool ok = system_.solve(out);
    if (ok) {
      ++stats_.factors;
      if (system_.last_factor_was_numeric()) {
        ++stats_.numeric_refactors;
      } else {
        ++stats_.full_factors;
      }
    } else {
      ++stats_.singular_factors;
    }
    return ok;
  };

  // Failure triage: a singular factorisation or a non-finite solution
  // can be a legitimate hard circuit (gmin/source stepping may still
  // succeed — return false) or a device that stamped NaN/inf into the
  // matrix (no amount of stepping heals that — throw, naming the
  // offender). The offender is found by re-assembling one device, then
  // one linear charge, at a time and scanning the values after each.
  auto diagnose_nonfinite_stamps = [&](const std::vector<double>& at) {
    // solve() leaves the assembly at `at` intact, so scan it directly.
    if (system_.values_finite()) return;  // stamps fine: numeric failure
    auto name_offender = [](const Device& device) {
      throw ConvergenceError("device " + device.name() +
                             " stamped a non-finite matrix/rhs value; "
                             "check its parameters and node biases");
    };
    system_.clear();
    configure(at);
    for (const auto& device : circuit_.devices()) {
      device->load(ctx);
      if (!system_.values_finite()) name_offender(*device);
    }
    if (mode == AnalysisMode::kTransient) {
      for (const LinearCharge& q : charges_) {
        stamp_charge(ctx, q);
        if (!system_.values_finite()) name_offender(*q.owner);
      }
    }
    throw ConvergenceError(
        "assembled MNA system contains non-finite values (offending "
        "device not identified; suspect the gmin diagonal or sources)");
  };

  assemble(x);
  double norm_x = system_.residual_norm(x);

  std::vector<double>& x_new = x_new_;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    ++stats_.newton_iterations;

    // The system is currently assembled at x (linearised there).
    if (!solve_system(x_new)) {
      diagnose_nonfinite_stamps(x);
      if (iterations_out) *iterations_out = iter + 1;
      return false;
    }

    if (!finite_and_clamped(x_new, x)) {
      diagnose_nonfinite_stamps(x);
      if (iterations_out) *iterations_out = iter + 1;
      return false;
    }

    // Backtracking line search on the KCL residual: if the full step
    // makes the residual much worse (classic overshoot of exponential
    // devices), halve the step towards x.
    assemble(x_new);
    bool limited = ctx.limited();
    double norm_new = system_.residual_norm(x_new);
    for (int bt = 0; bt < 6 && norm_new > 3.0 * norm_x + 1e-18; ++bt) {
      for (int i = 0; i < n; ++i) x_new[i] = 0.5 * (x[i] + x_new[i]);
      assemble(x_new);
      limited = ctx.limited();
      norm_new = system_.residual_norm(x_new);
    }

    // Diagnostic for a last iteration that fails: the worst-converging
    // unknown, found before the copy below overwrites the old iterate.
    const bool diagnose = iter == options_.max_iterations - 1 &&
                          util::log_level() <= util::LogLevel::kDebug;
    int worst = 0;
    double worst_delta = 0;
    if (diagnose) {
      for (int i = 0; i < n; ++i) {
        const double d = std::fabs(x_new[i] - x[i]);
        if (d > worst_delta) {
          worst_delta = d;
          worst = i;
        }
      }
    }
    // Copy, not swap: the caller keeps its buffer and the engine its
    // scratch, so a cached engine never holds memory a caller allocated.
    const bool within_tolerance = converged_copy(x, x_new);
    const bool conv = within_tolerance && !limited;
    if (diagnose && !conv) {
      util::log_debug("newton: no convergence; worst unknown ",
                      worst < nodes ? circuit_.node_name(worst)
                                    : "branch" + std::to_string(worst - nodes),
                      " delta=", worst_delta, " value=", x[worst],
                      " limited=", limited, " residual=", norm_new);
    }
    norm_x = norm_new;
    if (conv) {
      // The linear charges' state, written once, at the solution.
      if (mode == AnalysisMode::kTransient) {
        configure(x);
        for (const LinearCharge& q : charges_) {
          ctx.integrate_charge(q.state, q.c * (ctx.v(q.a) - ctx.v(q.b)));
        }
      }
      if (iterations_out) *iterations_out = iter + 1;
      return true;
    }
    // Loop continues with the system already assembled at the new x.
  }
  if (iterations_out) *iterations_out = options_.max_iterations;
  return false;
}

Solution Engine::solve_op() {
  trace::Span span("solve_op", "analysis");
  StatsPublisher publish(stats_);
  ++stats_.op_solves;
  std::vector<double> x = make_initial_guess();

  // 1. Plain Newton at target gmin.
  if (newton(x, AnalysisMode::kDcOp, 0.0, IntegrationMethod::kTrapezoidal, 0.0,
             options_.gmin, 1.0)) {
    return Solution(std::move(x), circuit_.node_count());
  }

  // 2. Gmin stepping: converge with a heavy diagonal, then relax it.
  util::log_debug("solve_op: plain Newton failed; gmin stepping");
  x = make_initial_guess();
  bool ok = true;
  for (double g = 1e-3; g >= options_.gmin * 0.99; g *= 1e-2) {
    ++stats_.op_gmin_steps;
    if (!newton(x, AnalysisMode::kDcOp, 0.0, IntegrationMethod::kTrapezoidal,
                0.0, g, 1.0)) {
      ok = false;
      break;
    }
  }
  if (ok && newton(x, AnalysisMode::kDcOp, 0.0, IntegrationMethod::kTrapezoidal,
                   0.0, options_.gmin, 1.0)) {
    return Solution(std::move(x), circuit_.node_count());
  }

  // 3. Source stepping: ramp all independent sources from zero.
  util::log_debug("solve_op: gmin stepping failed; source stepping");
  x = make_initial_guess();
  ok = true;
  for (double scale = 0.05; scale < 1.0 + 1e-12; scale += 0.05) {
    ++stats_.op_source_steps;
    if (!newton(x, AnalysisMode::kDcOp, 0.0, IntegrationMethod::kTrapezoidal,
                0.0, options_.gmin * 1e3, std::min(scale, 1.0))) {
      ok = false;
      break;
    }
  }
  if (ok && newton(x, AnalysisMode::kDcOp, 0.0, IntegrationMethod::kTrapezoidal,
                   0.0, options_.gmin, 1.0)) {
    return Solution(std::move(x), circuit_.node_count());
  }

  throw ConvergenceError("DC operating point did not converge");
}

void Engine::reset_runtime() {
  std::fill(state_prev_.begin(), state_prev_.end(), 0.0);
  std::fill(state_now_.begin(), state_now_.end(), 0.0);
  nodeset_.clear();
  for (const auto& device : circuit_.devices()) device->reset_runtime();
}

void Engine::initialize_state(const std::vector<double>& x) {
  LoadContext ctx(system_, circuit_.node_count(), AnalysisMode::kInitState);
  ctx.set_stats(&stats_);
  ctx.configure(&x, &x, &state_now_, &state_prev_, 0.0, options_.gmin, 1.0,
                true, IntegrationMethod::kTrapezoidal, 0.0);
  for (const auto& device : circuit_.devices()) device->load(ctx);
  for (const LinearCharge& q : charges_) {
    ctx.set_state(q.state, q.c * (ctx.v(q.a) - ctx.v(q.b)));
    ctx.set_state(q.state + 1, 0.0);
  }
  accept_state();
}

void Engine::accept_state() { state_prev_ = state_now_; }

}  // namespace sscl::spice
