#include "spice/ac.hpp"

#include <cmath>

#include "trace/trace.hpp"
#include "util/numeric.hpp"
#include "util/units.hpp"

namespace sscl::spice {

std::vector<double> AcResult::frequencies() const {
  std::vector<double> out(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) out[i] = points_[i].frequency;
  return out;
}

std::vector<double> AcResult::magnitude(NodeId node) const {
  std::vector<double> out(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    out[i] = std::abs(points_[i].v(node));
  }
  return out;
}

std::vector<double> AcResult::magnitude_db(NodeId node) const {
  std::vector<double> out = magnitude(node);
  for (double& v : out) v = 20.0 * std::log10(std::max(v, 1e-300));
  return out;
}

std::vector<double> AcResult::phase_deg(NodeId node) const {
  std::vector<double> out(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    out[i] = std::arg(points_[i].v(node)) * 180.0 / M_PI;
  }
  return out;
}

double AcResult::low_frequency_gain(NodeId node) const {
  if (points_.empty()) return 0.0;
  return std::abs(points_.front().v(node));
}

double AcResult::bandwidth_3db(NodeId node) const {
  return spice::bandwidth_3db(frequencies(), magnitude(node));
}

double bandwidth_3db(const std::vector<double>& frequencies,
                     const std::vector<double>& magnitudes) {
  if (magnitudes.size() < 2) return 0.0;
  const double target = magnitudes.front() / std::sqrt(2.0);
  for (std::size_t i = 1; i < magnitudes.size(); ++i) {
    const double m0 = magnitudes[i - 1];
    const double m1 = magnitudes[i];
    if (m0 >= target && m1 < target) {
      // Log-log interpolation between the bracketing points.
      const double lf0 = std::log(frequencies[i - 1]);
      const double lf1 = std::log(frequencies[i]);
      const double lm0 = std::log(m0);
      const double lm1 = std::log(m1);
      const double t = (std::log(target) - lm0) / (lm1 - lm0);
      return std::exp(lf0 + t * (lf1 - lf0));
    }
  }
  return 0.0;
}

void factor_ac_system(Engine& engine, ComplexSystem& system,
                      double frequency) {
  system.clear();
  AcContext ctx(system, 2.0 * M_PI * frequency);
  for (const auto& device : engine.circuit().devices()) device->load_ac(ctx);
  // Same diagonal floor as the DC solve.
  for (const MatrixSlot s : engine.gmin_slots()) {
    system.add_at(s, engine.options().gmin);
  }
  if (!system.factor()) {
    throw ConvergenceError("AC analysis: singular small-signal system at " +
                           util::format_g17(frequency) + " Hz");
  }
}

AcResult run_ac(Engine& engine, const std::vector<double>& frequencies) {
  trace::Span analysis_span("ac", "analysis");
  StatsPublisher publish(engine.stats());
  // Operating point first: devices cache small-signal parameters during
  // their final load() call.
  engine.solve_op();

  AcResult result;
  ComplexSystem system(engine.linear_system());
  long long index = 0;
  for (double f : frequencies) {
    trace::Span point_span("ac_point", "timestep", "point", index++);
    factor_ac_system(engine, system, f);
    AcPoint point;
    point.frequency = f;
    system.solve(point.x);
    ++engine.stats().ac_points;
    result.append(std::move(point));
  }
  return result;
}

AcResult run_ac_decade(Engine& engine, double f_start, double f_stop,
                       int points_per_decade) {
  const double decades = std::log10(f_stop / f_start);
  const std::size_t n =
      static_cast<std::size_t>(std::ceil(decades * points_per_decade)) + 1;
  return run_ac(engine, util::logspace(f_start, f_stop, n));
}

}  // namespace sscl::spice
