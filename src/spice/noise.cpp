#include "spice/noise.hpp"

#include <cmath>

#include "spice/ac.hpp"
#include "util/numeric.hpp"

namespace sscl::spice {

std::size_t NoiseResult::dominant_source() const {
  std::size_t best = 0;
  for (std::size_t k = 1; k < source_contribution.size(); ++k) {
    if (source_contribution[k] > source_contribution[best]) best = k;
  }
  return best;
}

NoiseResult run_noise(Engine& engine, NodeId out_p, NodeId out_n,
                      const std::vector<double>& frequencies,
                      double temperature) {
  Circuit& circuit = engine.circuit();
  // Operating point: devices cache small-signal parameters and evaluate
  // their noise PSDs from the solved bias currents.
  engine.solve_op();

  NoiseContext noise_ctx(temperature);
  for (const auto& device : circuit.devices()) device->add_noise(noise_ctx);
  const auto& sources = noise_ctx.sources();

  NoiseResult result;
  result.frequencies = frequencies;
  result.s_out.assign(frequencies.size(), 0.0);
  result.source_labels.reserve(sources.size());
  for (const auto& s : sources) result.source_labels.push_back(s.label);
  // Per-source PSD spectra, for the banded integration below.
  std::vector<std::vector<double>> per_source(
      sources.size(), std::vector<double>(frequencies.size(), 0.0));

  // Each source injects a unit current a -> b through its rhs slots.
  LinearSystem& lin = engine.linear_system();
  auto rhs_slot = [&](NodeId r) {
    return r == kGround ? RhsSlot{0} : lin.reserve_rhs(r);
  };
  std::vector<CurrentPattern> injections;
  injections.reserve(sources.size());
  for (const auto& s : sources) {
    injections.push_back({rhs_slot(s.a), rhs_slot(s.b)});
  }

  ComplexSystem system(engine.linear_system());
  std::vector<std::complex<double>> x;
  for (std::size_t fi = 0; fi < frequencies.size(); ++fi) {
    factor_ac_system(engine, system, frequencies[fi]);
    // One factorisation, one triangular solve per noise source.
    for (std::size_t k = 0; k < sources.size(); ++k) {
      system.clear_rhs();
      system.add_rhs_at(injections[k].a, -1.0);
      system.add_rhs_at(injections[k].b, 1.0);
      system.solve(x);
      const std::complex<double> vp =
          out_p == kGround ? std::complex<double>(0.0) : x[out_p];
      const std::complex<double> vn =
          out_n == kGround ? std::complex<double>(0.0) : x[out_n];
      const double h2 = std::norm(vp - vn);
      const double contrib = h2 * sources[k].psd;
      per_source[k][fi] = contrib;
      result.s_out[fi] += contrib;
    }
  }

  // Trapezoidal integration over the (typically log-spaced) grid.
  auto integrate = [&](const std::vector<double>& s) {
    double total = 0.0;
    for (std::size_t fi = 1; fi < frequencies.size(); ++fi) {
      total += 0.5 * (s[fi - 1] + s[fi]) *
               (frequencies[fi] - frequencies[fi - 1]);
    }
    return total;
  };
  result.source_contribution.resize(sources.size());
  double total_v2 = 0.0;
  for (std::size_t k = 0; k < sources.size(); ++k) {
    result.source_contribution[k] = integrate(per_source[k]);
    total_v2 += result.source_contribution[k];
  }
  result.v_rms = std::sqrt(total_v2);
  return result;
}

NoiseResult run_noise_decade(Engine& engine, NodeId out_p, NodeId out_n,
                             double f_start, double f_stop,
                             int points_per_decade, double temperature) {
  const double decades = std::log10(f_stop / f_start);
  const std::size_t n =
      static_cast<std::size_t>(std::ceil(decades * points_per_decade)) + 1;
  return run_noise(engine, out_p, out_n, util::logspace(f_start, f_stop, n),
                   temperature);
}

}  // namespace sscl::spice
