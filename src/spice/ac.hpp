#pragma once

/// \file ac.hpp
/// Small-signal AC analysis: linearise every device at the DC operating
/// point and solve the complex MNA system per frequency point.

#include <complex>
#include <vector>

#include "spice/engine.hpp"

namespace sscl::spice {

/// One AC solution point: the complex node voltages at a frequency.
struct AcPoint {
  double frequency = 0.0;  // [Hz]
  std::vector<std::complex<double>> x;

  std::complex<double> v(NodeId n) const {
    return n == kGround ? std::complex<double>(0.0) : x[n];
  }
};

/// AC sweep result with gain/phase convenience accessors.
class AcResult {
 public:
  void append(AcPoint point) { points_.push_back(std::move(point)); }
  std::size_t size() const { return points_.size(); }
  const AcPoint& operator[](std::size_t i) const { return points_[i]; }

  std::vector<double> frequencies() const;
  /// Magnitude of node voltage across the sweep.
  std::vector<double> magnitude(NodeId node) const;
  /// Magnitude in dB.
  std::vector<double> magnitude_db(NodeId node) const;
  /// Phase in degrees.
  std::vector<double> phase_deg(NodeId node) const;

  /// -3 dB bandwidth relative to the magnitude at the lowest frequency
  /// (first crossing, log-interpolated). Returns 0 if never reached.
  double bandwidth_3db(NodeId node) const;

  /// Magnitude at the lowest swept frequency (DC gain proxy).
  double low_frequency_gain(NodeId node) const;

 private:
  std::vector<AcPoint> points_;
};

/// -3 dB bandwidth of a magnitude response sampled at ascending
/// \p frequencies, relative to the first sample: the first crossing of
/// 1/sqrt(2) of it, interpolated log-log between the bracketing points.
/// Returns 0 if never reached.
double bandwidth_3db(const std::vector<double>& frequencies,
                     const std::vector<double>& magnitudes);

/// Run an AC sweep. Solves the DC operating point first (devices cache
/// their small-signal parameters during that load), then factors the
/// complex system at each of \p frequencies.
AcResult run_ac(Engine& engine, const std::vector<double>& frequencies);

/// The step run_ac and run_noise share: clear \p system, stamp every
/// device and the gmin floor at \p frequency, and factor. Throws
/// ConvergenceError naming the frequency when the system is singular.
void factor_ac_system(Engine& engine, ComplexSystem& system,
                      double frequency);

/// Convenience: logarithmic sweep from f_start to f_stop with
/// points_per_decade points.
AcResult run_ac_decade(Engine& engine, double f_start, double f_stop,
                       int points_per_decade = 10);

}  // namespace sscl::spice
