#include "adc/fai_adc.hpp"

namespace sscl::adc {

FaiAdc::FaiAdc(const FaiAdcConfig& config)
    : shared_(std::make_unique<const FaiAdcEnsemble>(config)),
      sample_(*shared_, analog::FoldingMismatch::zero(config.folding),
              util::Rng(0xadc0ffee)) {}

FaiAdc::FaiAdc(const FaiAdcConfig& config, const util::Rng& stream)
    : shared_(std::make_unique<const FaiAdcEnsemble>(config)),
      sample_(*shared_, stream) {}

analysis::LinearityResult FaiAdc::linearity() const {
  // Strictly in-range: outside [v_bottom, v_top] the folding front end
  // wraps, which would break the edge search's monotonicity assumption.
  // A quarter-LSB inset keeps the endpoints off the exact guard-crossing
  // positions at the range limits.
  return analysis::measure_linearity_edges(
      [this](double v) { return convert_noiseless(v); }, n_codes(),
      v_bottom() + 0.25 * lsb(), v_top() - 0.25 * lsb());
}

}  // namespace sscl::adc
