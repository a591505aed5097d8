#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "trace/trace.hpp"
#include "util/log.hpp"

namespace sscl::spice {

namespace {

/// The first step is tstop / kInitialSteps (capped by dt_max).
constexpr double kInitialSteps = 1000.0;
/// Smallest step, relative to tstop: a Newton failure below it is a
/// timestep underflow and LTE rejections stop shrinking the step.
constexpr double kDtMinRel = 1e-12;
/// SPICE trtol: the LTE tolerance relaxation factor.
constexpr double kLteScale = 7.0;

/// Collect and sort source breakpoints within (0, tstop].
std::vector<double> gather_breakpoints(const Circuit& circuit, double tstop) {
  std::vector<double> bp;
  for (const auto& device : circuit.devices()) {
    device->add_breakpoints(tstop, bp);
  }
  bp.push_back(tstop);
  std::sort(bp.begin(), bp.end());
  // Deduplicate within a small relative window.
  std::vector<double> out;
  for (double t : bp) {
    if (out.empty() || t - out.back() > 1e-15 * tstop) out.push_back(t);
  }
  return out;
}

}  // namespace

Waveform run_transient(Engine& engine, const TransientOptions& options) {
  if (options.tstop <= 0) {
    throw std::invalid_argument("run_transient: tstop must be positive");
  }
  const double tstop = options.tstop;
  const double dt_min = tstop * kDtMinRel;
  const double dt_max = options.dt_max > 0 ? options.dt_max : tstop / 50.0;
  double h = std::min(tstop / kInitialSteps, dt_max);

  Circuit& circuit = engine.circuit();
  const int nodes = circuit.node_count();
  Waveform wave(nodes);

  trace::Span analysis_span("transient", "analysis");
  StatsPublisher publish(engine.stats());

  // Initial condition: DC operating point at t = 0.
  Solution op = engine.solve_op();
  std::vector<double> x = op.raw();
  engine.initialize_state(x);
  wave.append(0.0, x);
  if (options.on_accept && !options.on_accept(0.0, x)) {
    throw TransientAborted();
  }

  std::vector<double> breakpoints = gather_breakpoints(circuit, tstop);
  std::size_t next_bp = 0;

  // Solution history for the predictor (previous two accepted points).
  std::vector<double> x_prev = x;
  double h_prev = 0.0;

  double t = 0.0;
  // Use backward Euler right after t=0 and after each breakpoint.
  bool use_be = true;

  const SolverOptions& sopts = engine.options();

  int consecutive_failures = 0;
  long long lte_rejects = 0;
  long long steps = 0;
  while (t < tstop - 1e-15 * tstop) {
    // One span per step attempt (accepted or rejected): the trace shows
    // the LTE/Newton rejection retries as repeated short spans.
    trace::Span step_span("timestep", "timestep", "step", steps);
    if (++steps % 100000 == 0) {
      util::log_debug("transient: step ", steps, " t=", t, " h=", h);
    }
    // Never step over a breakpoint.
    while (next_bp < breakpoints.size() &&
           breakpoints[next_bp] <= t + 1e-15 * tstop) {
      ++next_bp;
    }
    double h_eff = std::min(h, dt_max);
    bool hit_bp = false;
    if (next_bp < breakpoints.size() && t + h_eff >= breakpoints[next_bp]) {
      h_eff = breakpoints[next_bp] - t;
      hit_bp = true;
    }
    if (t + h_eff > tstop) h_eff = tstop - t;

    const IntegrationMethod method =
        use_be ? IntegrationMethod::kBackwardEuler : options.method;
    const double a0 =
        method == IntegrationMethod::kTrapezoidal ? 2.0 / h_eff : 1.0 / h_eff;

    // Predictor: linear extrapolation from the last two accepted points.
    std::vector<double> x_pred = x;
    if (h_prev > 0) {
      const double r = h_eff / h_prev;
      for (std::size_t i = 0; i < x_pred.size(); ++i) {
        x_pred[i] = x[i] + r * (x[i] - x_prev[i]);
      }
    }

    std::vector<double> x_try = x_pred;
    const bool ok = engine.newton(x_try, AnalysisMode::kTransient, t + h_eff,
                                  method, a0, sopts.gmin, 1.0);
    if (!ok) {
      ++engine.stats().transient_rejects_newton;
      util::log_debug("transient: newton failed at t=", t + h_eff, " h=",
                      h_eff, " (", consecutive_failures, " consecutive)");
      h = h_eff * 0.25;
      if (++consecutive_failures > 60 || h < dt_min) {
        throw ConvergenceError("transient: timestep underflow at t = " +
                               std::to_string(t));
      }
      continue;
    }
    consecutive_failures = 0;

    // LTE estimate from the predictor-corrector difference (node
    // voltages only; branch currents can be stiff without mattering).
    double err_ratio = 0.0;
    if (h_prev > 0) {
      for (int i = 0; i < nodes; ++i) {
        const double tol =
            kLteScale *
            (sopts.vntol + sopts.reltol * std::max(std::fabs(x_try[i]),
                                                   std::fabs(x[i])));
        err_ratio = std::max(err_ratio, std::fabs(x_try[i] - x_pred[i]) / tol);
      }
    }

    if (err_ratio > 4.0 && h_eff > dt_min && !hit_bp) {
      // Reject: redo with a smaller step.
      ++lte_rejects;
      ++engine.stats().transient_rejects_lte;
      if ((lte_rejects & (lte_rejects - 1)) == 0) {
        util::log_debug("transient: LTE reject #", lte_rejects, " at t=", t,
                        " h=", h_eff, " err=", err_ratio);
      }
      h = std::max(h_eff * 0.25, dt_min);
      continue;
    }

    // Accept.
    {
      double big = 0;
      int big_i = 0;
      for (int i = 0; i < nodes; ++i) {
        if (std::fabs(x_try[i]) > big) {
          big = std::fabs(x_try[i]);
          big_i = i;
        }
      }
      if (big > 100) {
        util::log_debug("transient: accepted |v| = ", big, " at node ",
                        engine.circuit().node_name(big_i), " t=", t + h_eff,
                        " h=", h_eff);
      }
    }
    engine.accept_state();
    ++engine.stats().transient_steps;
    x_prev = x;
    x = std::move(x_try);
    h_prev = h_eff;
    t += h_eff;
    wave.append(t, x);
    if (options.on_accept && !options.on_accept(t, x)) {
      throw TransientAborted();
    }
    use_be = hit_bp;  // damp the discontinuity right after a breakpoint

    // Step-size update: grow gently, shrink by the error estimate.
    double growth = 2.0;
    if (err_ratio > 0) {
      growth = std::clamp(0.9 / std::sqrt(err_ratio), 0.3, 2.0);
    }
    h = std::clamp(h_eff * growth, dt_min, dt_max);
  }

  return wave;
}

}  // namespace sscl::spice
