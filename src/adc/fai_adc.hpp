#pragma once

/// \file fai_adc.hpp
/// The complete 8-bit folding-and-interpolating ADC of paper Section III
/// as one stand-alone instance: folding front end + comparators
/// (analog, behavioural with injected mismatch) and the STSCL encoder
/// (bit-exact software mirror of the gate-level netlist). FaiAdc owns
/// the shared half of its configuration and one FaiAdcEnsemble::Sample,
/// the conversion code the Monte-Carlo harnesses run per instance.
/// Static linearity (Fig. 11) and dynamic (ENOB) harnesses included.

#include <cstdint>
#include <memory>

#include "adc/ensemble.hpp"

namespace sscl::adc {

class FaiAdc {
 public:
  /// Nominal (mismatch-free) instance.
  explicit FaiAdc(const FaiAdcConfig& config);
  /// Monte-Carlo instance: mismatch sampled from config.sigmas using
  /// forked sub-streams of \p stream (which is NOT consumed -- the
  /// instance is a pure function of the stream's seed). Ensembles pass
  /// base.fork(i) for instance i; see docs/RUNNER.md.
  FaiAdc(const FaiAdcConfig& config, const util::Rng& stream);

  const FaiAdcConfig& config() const { return shared_->config(); }
  const analog::FoldingSampleFrontEnd& front_end() const {
    return sample_.front_end();
  }

  int n_codes() const { return config().folding.total_codes(); }
  double v_bottom() const { return config().folding.v_bottom; }
  double v_top() const { return config().folding.v_top; }
  double lsb() const { return config().folding.lsb(); }

  /// Convert one sample (noiseless unless input_noise_rms is set, in
  /// which case an internal deterministic noise stream is used).
  int convert(double vin) { return sample_.convert(vin); }
  /// Deterministic conversion ignoring the noise setting.
  int convert_noiseless(double vin) const {
    return sample_.convert_noiseless(vin);
  }

  /// Raw comparator patterns at vin (for encoder cross-checks).
  std::uint32_t coarse_pattern(double vin) const {
    return sample_.coarse_pattern(vin);
  }
  std::uint64_t fine_pattern_bits(double vin) const {
    return sample_.fine_pattern_bits(vin);
  }

  /// Static linearity by edge search (transfer-curve method).
  analysis::LinearityResult linearity() const;
  /// Static linearity by ramp histogram (the Fig. 11 lab procedure);
  /// samples_per_code sets the ramp density.
  analysis::LinearityResult linearity_histogram(int samples_per_code = 16) {
    return sample_.linearity_histogram(samples_per_code);
  }

  /// Dynamic test: coherent sine record (power-of-two length), returns
  /// the metrics (ENOB etc.).
  analysis::DynamicMetrics sine_enob(std::size_t record = 4096,
                                     int requested_cycles = 61) {
    return sample_.sine_enob(record, requested_cycles);
  }

 private:
  // The Sample refers to *shared_; the heap allocation keeps that
  // address stable when a FaiAdc is moved.
  std::unique_ptr<const FaiAdcEnsemble> shared_;
  FaiAdcEnsemble::Sample sample_;
};

}  // namespace sscl::adc
