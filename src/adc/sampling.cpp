#include "adc/sampling.hpp"

#include <cmath>

#include "util/constants.hpp"
#include "util/numeric.hpp"

namespace sscl::adc {

double ComparatorDynamics::tau(double i_unit) const {
  const double gm = i_unit / (n * util::thermal_voltage(temperature));
  return c_reg / gm;
}

double ComparatorDynamics::metastable_window(double i_unit, double t_avail,
                                             double vsw) const {
  return vsw * std::exp(-t_avail / tau(i_unit));
}

SampledFaiAdc::SampledFaiAdc(const FaiAdcConfig& config,
                             const util::Rng& stream,
                             ComparatorDynamics dynamics)
    : adc_(config, stream.fork(0)), dynamics_(dynamics),
      rng_(stream.fork(1)) {}

int SampledFaiAdc::convert(double vin, double fs, double i_unit) {
  // Half the sampling period is the regeneration budget.
  const double window =
      dynamics_.metastable_window(i_unit, 0.5 / fs);
  if (adc_.config().input_noise_rms > 0) {
    vin += rng_.gaussian(0.0, adc_.config().input_noise_rms);
  }

  const analog::FoldingSampleFrontEnd& fe = adc_.front_end();
  const double gm_sig =
      adc_.config().folding.i_unit /
      (2.0 * adc_.config().folding.n *
       util::thermal_voltage(adc_.config().folding.temperature));

  // Fine comparators: randomise decisions inside the window (the window
  // is input-referred; signals are currents, referred via gm). One
  // folder evaluation feeds every fine line.
  double fo[FaiAdcEnsemble::kMaxFolders];
  fe.fold(vin, fo);
  std::uint64_t fine = 0;
  for (int i = 0; i < FaiAdcEnsemble::kFineLines; ++i) {
    const double sig = fe.fine_signal_from(fo, i) / gm_sig;  // volts-referred
    bool bit = fe.fine_bit_from(fo, i);
    if (std::fabs(sig) < window) bit = rng_.uniform() < 0.5;
    if (bit) fine |= (1ULL << i);
  }
  // Coarse comparators: same treatment on the voltage overdrive.
  std::uint32_t coarse = 0;
  const int cc = fe.coarse_count(vin);
  for (int k = 0; k < 8; ++k) {
    bool bit = k < cc;
    // Overdrive distance unknown per comparator from here; approximate
    // with the distance to the nearest threshold via the count edge:
    // only the comparator at the count boundary is at risk.
    if (k == cc || k + 1 == cc) {
      // Distance of vin to that threshold in volts:
      const double seg = adc_.config().folding.v_full_scale() /
                         adc_.config().folding.fold_factor;
      const double thr = adc_.config().folding.v_bottom + (k + 1) * seg -
                         0.5 * seg;
      if (std::fabs(vin - thr) < window) bit = rng_.uniform() < 0.5;
    }
    if (bit) coarse |= (1u << k);
  }
  return software_encode(coarse, fine);
}

analysis::DynamicMetrics SampledFaiAdc::sine_enob(double fs, double i_unit,
                                                  std::size_t record,
                                                  int requested_cycles) {
  const int cycles = analysis::coherent_cycles(record, requested_cycles);
  const double mid = 0.5 * (adc_.v_bottom() + adc_.v_top());
  const double amp = 0.495 * (adc_.v_top() - adc_.v_bottom());
  std::vector<double> samples(record);
  for (std::size_t k = 0; k < record; ++k) {
    const double phase = 2.0 * M_PI * cycles * static_cast<double>(k) /
                         static_cast<double>(record);
    samples[k] =
        static_cast<double>(convert(mid + amp * std::sin(phase), fs, i_unit));
  }
  return analysis::sine_test(samples, cycles);
}

double max_sampling_rate(const FaiAdcConfig& config, double i_unit,
                         double enob_floor, std::uint64_t seed) {
  auto enob_at = [&](double fs) {
    util::Rng rng(seed);
    SampledFaiAdc adc(config, rng);
    return adc.sine_enob(fs, i_unit, 1024).enob;
  };
  const double f_lo = 1.0;
  double f_hi = 1e9;
  if (enob_at(f_lo) < enob_floor) return 0.0;
  if (enob_at(f_hi) >= enob_floor) return f_hi;
  return util::binary_search_boundary(
      [&](double fs) { return enob_at(fs) >= enob_floor; }, f_lo, f_hi, 0.02);
}

}  // namespace sscl::adc
