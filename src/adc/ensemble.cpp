#include "adc/ensemble.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "run/parallel_for.hpp"
#include "trace/trace.hpp"
#include "util/numeric.hpp"

namespace sscl::adc {

namespace {

constexpr int kCoarseLines = 8;
constexpr int kFineLines = FaiAdcEnsemble::kFineLines;

int gray5(int i) { return i ^ (i >> 1); }

/// Majority-of-neighbours filter with clamped ends (mirrors the Fig. 8
/// gate rank in the encoder netlist). Computed as a whole-word 3-way
/// bitwise majority over the left/centre/right neighbour words, with
/// the edge bits duplicated into their missing neighbour — bit-for-bit
/// the per-position sum-of-ones >= 2 rule (digital/test_encoder.cpp
/// crosschecks against the gate netlist).
template <typename Word>
Word majority_filter(Word w, int width) {
  const int bits = static_cast<int>(sizeof(Word) * 8);
  const Word mask = width >= bits ? ~Word{0} : (Word{1} << width) - 1;
  const Word left = ((w << 1) | (w & Word{1})) & mask;
  const Word right = (w >> 1) | (w & (Word{1} << (width - 1)));
  return ((left & w) | (left & right) | (w & right)) & mask;
}

void trace_publish_adc_ensemble(int instances, double seconds) {
  if (!trace::enabled()) return;
  trace::set_counter("adc.ensemble.instances", instances);
  trace::set_gauge("adc.ensemble.seconds", seconds);
  trace::set_gauge("adc.ensemble.instances_per_s",
                   seconds > 0 ? instances / seconds : 0.0);
}

/// The shared instance loop of every ADC Monte-Carlo analysis: out[i] =
/// fn(instance i), the instance built from Rng(seed).fork(i). Ordered
/// and bit-identical at any jobs count.
template <typename R, typename F>
std::vector<R> ensemble_map(const FaiAdcConfig& config, int instances,
                            std::uint64_t seed, int jobs, F&& fn) {
  const util::Rng base(seed);
  const FaiAdcEnsemble shared(config);
  return run::parallel_map<R>(
      static_cast<std::size_t>(instances), jobs, [&](std::size_t i) {
        FaiAdcEnsemble::Sample instance = shared.sample(base.fork(i));
        return fn(instance);
      });
}

}  // namespace

int software_encode(std::uint32_t coarse_pattern, std::uint64_t fine_pattern) {
  const std::uint32_t cb = majority_filter(coarse_pattern, kCoarseLines);
  const std::uint64_t fb = majority_filter(fine_pattern, kFineLines);

  // Fine: XOR transition detect -> Gray OR trees -> binary. One shared
  // transition word instead of per-line shifts; the loop ends after the
  // highest transition (a clean thermometer code has exactly one).
  int gray = 0;
  std::uint64_t t = (fb ^ (fb >> 1)) & ((std::uint64_t{1} << (kFineLines - 1)) - 1);
  for (int i = 1; t != 0; ++i, t >>= 1) {
    if (t & 1) gray |= gray5(i);
  }
  int pos = 0;
  // Binary from Gray: prefix XOR from the MSB.
  for (int k = 4; k >= 0; --k) {
    const int upper = (k == 4) ? 0 : ((pos >> (k + 1)) & 1);
    pos |= ((upper ^ ((gray >> k) & 1)) & 1) << k;
  }

  // Coarse: two thermometer->Gray->binary banks (count and count-1),
  // fine MSB selects. Uses the exact Gray formulas of the netlist so the
  // two implementations agree bit-for-bit even on non-monotone patterns.
  auto bank = [cb](int base) {
    auto line = [cb, base](int k) -> int { return (cb >> (base + k)) & 1; };
    const int g2 = line(3);
    const int g1 = line(1) & ~line(5) & 1;
    const int g0 = ((line(0) & ~line(2)) | (line(4) & ~line(6))) & 1;
    const int b2 = g2;
    const int b1 = b2 ^ g1;
    const int b0 = b1 ^ g0;
    return b2 * 4 + b1 * 2 + b0;
  };
  const int s = pos >= 16 ? bank(1) : bank(0);
  return s * kFineLines + pos;
}

FaiAdcEnsemble::FaiAdcEnsemble(const FaiAdcConfig& config)
    : config_(config), folding_(config.folding) {
  if (config_.folding.n_folders > kMaxFolders) {
    throw std::invalid_argument("FaiAdcEnsemble: too many folders");
  }
}

FaiAdcEnsemble::Sample::Sample(const FaiAdcEnsemble& shared,
                               const util::Rng& stream)
    : Sample(shared,
             analog::FoldingMismatch::sample(shared.config().folding,
                                             shared.config().sigmas,
                                             stream.fork(0)),
             stream.fork(1)) {}

FaiAdcEnsemble::Sample::Sample(const FaiAdcEnsemble& shared,
                               const analog::FoldingMismatch& mm,
                               const util::Rng& noise)
    : shared_(shared), front_end_(shared.folding(), mm), noise_rng_(noise) {}

std::uint32_t FaiAdcEnsemble::Sample::coarse_pattern(double vin) const {
  return static_cast<std::uint32_t>((1u << front_end_.coarse_count(vin)) - 1u);
}

std::uint64_t FaiAdcEnsemble::Sample::fine_pattern_bits(double vin) const {
  // One folder evaluation per conversion, shared by all fine lines.
  double fo[kMaxFolders];
  front_end_.fold(vin, fo);
  std::uint64_t fine = 0;
  for (int i = 0; i < kFineLines; ++i) {
    if (front_end_.fine_bit_from(fo, i)) fine |= (1ULL << i);
  }
  return fine;
}

int FaiAdcEnsemble::Sample::convert_noiseless(double vin) const {
  return software_encode(coarse_pattern(vin), fine_pattern_bits(vin));
}

int FaiAdcEnsemble::Sample::convert(double vin) {
  if (shared_.config().input_noise_rms > 0) {
    vin += noise_rng_.gaussian(0.0, shared_.config().input_noise_rms);
  }
  return convert_noiseless(vin);
}

analysis::LinearityResult FaiAdcEnsemble::Sample::linearity_histogram(
    int samples_per_code) {
  const int total = shared_.n_codes() * samples_per_code;
  std::vector<int> codes;
  codes.reserve(total);
  // Exactly full-scale: outside the range a folding front end WRAPS
  // (there are no over-range folders in this design), so overdriving the
  // ramp would alias out-of-range inputs onto interior codes.
  const double lo = shared_.v_bottom();
  const double hi = shared_.v_top();
  for (int k = 0; k < total; ++k) {
    const double v = lo + (hi - lo) * (k + 0.5) / total;
    codes.push_back(convert(v));
  }
  return analysis::measure_linearity_histogram(codes, shared_.n_codes());
}

analysis::DynamicMetrics FaiAdcEnsemble::Sample::sine_enob(
    std::size_t record, int requested_cycles) {
  const int cycles = analysis::coherent_cycles(record, requested_cycles);
  const double mid = 0.5 * (shared_.v_bottom() + shared_.v_top());
  const double amp = 0.495 * (shared_.v_top() - shared_.v_bottom());
  std::vector<double> samples(record);
  for (std::size_t k = 0; k < record; ++k) {
    const double phase = 2.0 * M_PI * cycles * static_cast<double>(k) /
                         static_cast<double>(record);
    samples[k] = static_cast<double>(convert(mid + amp * std::sin(phase)));
  }
  return analysis::sine_test(samples, cycles);
}

MonteCarloLinearity monte_carlo_linearity(const FaiAdcConfig& config,
                                          int instances, std::uint64_t seed,
                                          int jobs, McEngine) {
  MonteCarloLinearity mc;
  // Static linearity is defined on the noiseless transfer curve; noise
  // belongs to the dynamic (ENOB) tests.
  FaiAdcConfig quiet = config;
  quiet.input_noise_rms = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto rows = ensemble_map<std::pair<double, double>>(
      quiet, instances, seed, jobs, [](FaiAdcEnsemble::Sample& adc) {
        // Code-density (histogram) method: the lab procedure behind
        // Fig. 11, and the right estimator when mismatch makes the
        // transfer locally non-monotone.
        const analysis::LinearityResult lin = adc.linearity_histogram();
        return std::pair<double, double>{lin.max_abs_inl, lin.max_abs_dnl};
      });
  trace_publish_adc_ensemble(
      instances,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
  for (const auto& [inl, dnl] : rows) {
    mc.max_inl.push_back(inl);
    mc.max_dnl.push_back(dnl);
  }
  mc.mean_inl = util::mean(mc.max_inl);
  mc.mean_dnl = util::mean(mc.max_dnl);
  mc.worst_inl = *std::max_element(mc.max_inl.begin(), mc.max_inl.end());
  mc.worst_dnl = *std::max_element(mc.max_dnl.begin(), mc.max_dnl.end());
  return mc;
}

MonteCarloEnob monte_carlo_enob(const FaiAdcConfig& config, int instances,
                                std::uint64_t seed, int jobs,
                                std::size_t record, McEngine) {
  MonteCarloEnob mc;
  const auto t0 = std::chrono::steady_clock::now();
  mc.enob = ensemble_map<double>(config, instances, seed, jobs,
                                 [record](FaiAdcEnsemble::Sample& adc) {
                                   return adc.sine_enob(record).enob;
                                 });
  trace_publish_adc_ensemble(
      instances,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
  mc.mean_enob = util::mean(mc.enob);
  mc.worst_enob = *std::min_element(mc.enob.begin(), mc.enob.end());
  return mc;
}

}  // namespace sscl::adc
