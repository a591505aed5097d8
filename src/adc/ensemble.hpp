#pragma once

/// \file ensemble.hpp
/// The conversion core of the behavioural FAI ADC of paper Section III
/// and its Monte-Carlo harness: one shared FaiAdcEnsemble topology
/// (configuration + nominal coarse thresholds), many per-sample
/// instances. A Sample is the single conversion implementation of the
/// converter — FaiAdc (fai_adc.hpp) and SampledFaiAdc (sampling.hpp)
/// each own one — and evaluates each folder output once per conversion
/// through analog::FoldingSampleFrontEnd, reusing the configuration's
/// one nominal threshold bisection.
///
/// monte_carlo_linearity and monte_carlo_enob (and the yield benches)
/// share one ordered instance loop: instance i is a pure function of
/// Rng(seed).fork(i), so results are bit-identical at any jobs count.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analog/folding_ensemble.hpp"
#include "analysis/dynamic.hpp"
#include "analysis/linearity.hpp"
#include "util/rng.hpp"

namespace sscl::adc {

struct FaiAdcConfig {
  analog::FoldingParams folding;
  analog::FoldingMismatch::Sigmas sigmas;
  /// Input-referred rms noise per conversion [V]. The default is the
  /// thermal/sampling noise floor of the front end at its nW-level bias
  /// (about half an LSB) -- the paper's 6.5 ENOB at 8 bits implies a
  /// comparable noise-plus-distortion budget.
  double input_noise_rms = 1.2e-3;
};

/// Bit-exact software mirror of the digital encoder netlist: majority
/// bubble filter, XOR transition detect, Gray OR-trees, bank-selected
/// coarse correction. Operates on raw comparator patterns.
int software_encode(std::uint32_t coarse_pattern, std::uint64_t fine_pattern);

/// Shared immutable topology of the behavioural ADC ensemble.
class FaiAdcEnsemble {
 public:
  /// Folder count bound of the on-stack folder-output buffers; the
  /// encoder mirror is fixed at the paper's 32 fine lines.
  static constexpr int kMaxFolders = 8;
  static constexpr int kFineLines = 32;

  explicit FaiAdcEnsemble(const FaiAdcConfig& config);

  const FaiAdcConfig& config() const { return config_; }
  const analog::FoldingEnsemble& folding() const { return folding_; }

  int n_codes() const { return config_.folding.total_codes(); }
  double v_bottom() const { return config_.folding.v_bottom; }
  double v_top() const { return config_.folding.v_top; }

  /// One converter instance. Holds a reference to its FaiAdcEnsemble,
  /// which must outlive it.
  class Sample {
   public:
    /// Monte-Carlo instance: mismatch drawn from stream.fork(0), input
    /// noise from stream.fork(1) (the stream itself is not consumed).
    Sample(const FaiAdcEnsemble& shared, const util::Rng& stream);
    /// Explicit mismatch and noise stream (FaiAdc's nominal instance).
    Sample(const FaiAdcEnsemble& shared, const analog::FoldingMismatch& mm,
           const util::Rng& noise);

    /// Convert one sample, adding input_noise_rms of noise drawn from
    /// the instance's noise stream when it is set.
    int convert(double vin);
    /// Deterministic conversion ignoring the noise setting.
    int convert_noiseless(double vin) const;

    /// Raw comparator patterns at vin (for encoder cross-checks).
    std::uint32_t coarse_pattern(double vin) const;
    std::uint64_t fine_pattern_bits(double vin) const;

    /// Static linearity by ramp histogram (the Fig. 11 lab procedure);
    /// samples_per_code sets the ramp density.
    analysis::LinearityResult linearity_histogram(int samples_per_code = 16);
    /// Dynamic test: coherent sine record (power-of-two length), returns
    /// the metrics (ENOB etc.).
    analysis::DynamicMetrics sine_enob(std::size_t record = 4096,
                                       int requested_cycles = 61);

    const analog::FoldingSampleFrontEnd& front_end() const {
      return front_end_;
    }

   private:
    const FaiAdcEnsemble& shared_;
    analog::FoldingSampleFrontEnd front_end_;
    util::Rng noise_rng_;
  };

  Sample sample(const util::Rng& stream) const { return Sample(*this, stream); }

 private:
  FaiAdcConfig config_;
  analog::FoldingEnsemble folding_;
};

/// The Monte-Carlo evaluation path. Only kEnsemble remains; the enum
/// stays for callers that still name it (perfbench's mc_yield) and goes
/// once they stop. Nothing branches on it.
enum class McEngine { kEnsemble };

/// Monte-Carlo linearity summary over many mismatch instances.
struct MonteCarloLinearity {
  std::vector<double> max_inl;  ///< per instance
  std::vector<double> max_dnl;
  double mean_inl = 0.0;
  double mean_dnl = 0.0;
  double worst_inl = 0.0;
  double worst_dnl = 0.0;
};
/// Runs the ensemble as a parallel map over per-instance RNG streams:
/// instance i is built from Rng(seed).fork(i), so the result is
/// bit-identical for every \p jobs value (1 = serial reference).
MonteCarloLinearity monte_carlo_linearity(
    const FaiAdcConfig& config, int instances, std::uint64_t seed = 2026,
    int jobs = 1, McEngine engine = McEngine::kEnsemble);

/// Monte-Carlo dynamic (ENOB) summary over independent mismatch + noise
/// instances; same determinism contract as monte_carlo_linearity.
struct MonteCarloEnob {
  std::vector<double> enob;  ///< per instance
  double mean_enob = 0.0;
  double worst_enob = 0.0;
};
MonteCarloEnob monte_carlo_enob(const FaiAdcConfig& config, int instances,
                                std::uint64_t seed = 2026, int jobs = 1,
                                std::size_t record = 1024,
                                McEngine engine = McEngine::kEnsemble);

}  // namespace sscl::adc
