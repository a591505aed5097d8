#include "analysis/sinefit.hpp"

#include <cmath>
#include <stdexcept>

#include "spice/linear_system.hpp"

namespace sscl::analysis {

namespace {

/// Solve the small normal equations on the MNA system's LU, over a
/// dense m x m pattern.
std::vector<double> least_squares(
    const std::vector<std::vector<double>>& columns,
    const std::vector<double>& y) {
  const int m = static_cast<int>(columns.size());
  spice::LinearSystem ata(m);
  std::vector<spice::MatrixSlot> slots;
  for (int k = 0; k < m * m; ++k) slots.push_back(ata.reserve(k / m, k % m));
  ata.finalize_pattern();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      double s = 0;
      for (std::size_t k = 0; k < y.size(); ++k) {
        s += columns[i][k] * columns[j][k];
      }
      ata.add_at(slots[i * m + j], s);
    }
    double aty = 0;
    for (std::size_t k = 0; k < y.size(); ++k) aty += columns[i][k] * y[k];
    ata.add_rhs_at(ata.reserve_rhs(i), aty);
  }
  std::vector<double> x;
  if (!ata.solve(x)) {
    throw std::runtime_error("sine_fit: singular normal equations");
  }
  return x;
}

void finalize(SineFit& fit, const std::vector<double>& samples, double a,
              double b, double c, double w) {
  fit.amplitude = std::hypot(a, b);
  fit.phase = std::atan2(b, a);
  fit.offset = c;
  fit.frequency = w / (2.0 * M_PI);
  double ss = 0;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const double model = a * std::cos(w * k) + b * std::sin(w * k) + c;
    const double e = samples[k] - model;
    ss += e * e;
  }
  fit.residual_rms = std::sqrt(ss / samples.size());
  const double sig_rms = fit.amplitude / std::sqrt(2.0);
  fit.sinad_db =
      20.0 * std::log10(sig_rms / std::max(fit.residual_rms, 1e-300));
  fit.enob = (fit.sinad_db - 1.76) / 6.02;
}

}  // namespace

SineFit sine_fit_3param(const std::vector<double>& samples,
                        double cycles_per_sample) {
  if (samples.size() < 8) {
    throw std::invalid_argument("sine_fit: need >= 8 samples");
  }
  const double w = 2.0 * M_PI * cycles_per_sample;
  const std::size_t n = samples.size();
  std::vector<std::vector<double>> cols(3, std::vector<double>(n));
  for (std::size_t k = 0; k < n; ++k) {
    cols[0][k] = std::cos(w * k);
    cols[1][k] = std::sin(w * k);
    cols[2][k] = 1.0;
  }
  const auto x = least_squares(cols, samples);
  SineFit fit;
  finalize(fit, samples, x[0], x[1], x[2], w);
  return fit;
}

SineFit sine_fit_4param(const std::vector<double>& samples,
                        double cycles_per_sample_guess, int max_iterations,
                        double tol) {
  if (samples.size() < 8) {
    throw std::invalid_argument("sine_fit: need >= 8 samples");
  }
  const std::size_t n = samples.size();
  double w = 2.0 * M_PI * cycles_per_sample_guess;
  // Seed (a, b, c) with a 3-parameter fit at the guess frequency; the
  // frequency column of the 4-parameter Jacobian is proportional to the
  // amplitude, so starting from zero would be singular.
  const SineFit seed = sine_fit_3param(samples, cycles_per_sample_guess);
  double a = seed.amplitude * std::cos(seed.phase);
  double b = seed.amplitude * std::sin(seed.phase);
  double c = seed.offset;
  SineFit fit;
  for (int it = 0; it < max_iterations; ++it) {
    // Linearised model: d/dw term column k * (-a sin + b cos).
    std::vector<std::vector<double>> cols(4, std::vector<double>(n));
    for (std::size_t k = 0; k < n; ++k) {
      const double cw = std::cos(w * k);
      const double sw = std::sin(w * k);
      cols[0][k] = cw;
      cols[1][k] = sw;
      cols[2][k] = 1.0;
      cols[3][k] = static_cast<double>(k) * (-a * sw + b * cw);
    }
    const auto x = least_squares(cols, samples);
    a = x[0];
    b = x[1];
    c = x[2];
    const double dw = x[3];
    w += dw;
    fit.iterations = it + 1;
    if (std::fabs(dw) < tol * std::max(w, 1e-12)) break;
  }
  fit.converged = fit.iterations < max_iterations;
  finalize(fit, samples, a, b, c, w);
  return fit;
}

}  // namespace sscl::analysis
