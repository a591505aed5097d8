#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adc/ensemble.hpp"
#include "adc/fai_adc.hpp"
#include "analog/folding.hpp"
#include "analog/folding_ensemble.hpp"
#include "util/rng.hpp"

namespace sscl::adc {
namespace {

using analog::FoldingEnsemble;
using analog::FoldingFrontEnd;
using analog::FoldingMismatch;
using analog::FoldingParams;
using analog::FoldingSampleFrontEnd;

/// The per-line reference conversion: FoldingFrontEnd evaluates the
/// folders once per fine line, software_encode decodes the patterns.
int reference_code(const FoldingFrontEnd& fe, double vin) {
  const auto coarse =
      static_cast<std::uint32_t>((1u << fe.coarse_count(vin)) - 1u);
  std::uint64_t fine = 0;
  for (int i = 0; i < fe.params().fine_lines(); ++i) {
    if (fe.fine_bit(i, vin)) fine |= (1ULL << i);
  }
  return software_encode(coarse, fine);
}

/// A vin sweep that covers every fold segment, the guard regions past
/// both range ends, and off-grid points between crossings.
std::vector<double> sweep(const FoldingParams& p, int points) {
  std::vector<double> v;
  v.reserve(points);
  const double lo = p.v_bottom - 2.0 * p.lsb();
  const double hi = p.v_top + 2.0 * p.lsb();
  for (int k = 0; k < points; ++k) {
    v.push_back(lo + (hi - lo) * (k + 0.37) / points);
  }
  return v;
}

/// Every public evaluation of the per-sample front end must be bitwise
/// equal to the reference FoldingFrontEnd built with the same mismatch:
/// the table precomputation only hoists subexpressions the reference
/// computes with the same IEEE grouping.
TEST(AdcEnsemble, SampleFrontEndIsBitwiseEqualToLegacy) {
  const FoldingParams p;  // paper geometry: 4 folders x 8 folds x 8 interp
  const FoldingEnsemble shared(p);
  for (std::uint64_t inst = 0; inst < 4; ++inst) {
    const FoldingMismatch mm = FoldingMismatch::sample(
        p, FoldingMismatch::Sigmas{}, util::Rng(99).fork(inst));
    const FoldingFrontEnd reference(p, mm);
    const FoldingSampleFrontEnd fast(shared, mm);

    std::vector<double> fo(static_cast<std::size_t>(p.n_folders));
    for (const double vin : sweep(p, 700)) {
      fast.fold(vin, fo.data());
      for (int j = 0; j < p.n_folders; ++j) {
        EXPECT_EQ(fast.folder_output(j, vin), reference.folder_output(j, vin))
            << "inst " << inst << " folder " << j << " vin " << vin;
        EXPECT_EQ(fo[j], reference.folder_output(j, vin));
      }
      for (int i = 0; i < p.fine_lines(); ++i) {
        EXPECT_EQ(fast.fine_signal_from(fo.data(), i),
                  reference.fine_signal(i, vin))
            << "inst " << inst << " line " << i << " vin " << vin;
        EXPECT_EQ(fast.fine_bit_from(fo.data(), i), reference.fine_bit(i, vin));
      }
      EXPECT_EQ(fast.coarse_count(vin), reference.coarse_count(vin))
          << "inst " << inst << " vin " << vin;
    }
  }
}

/// Zero mismatch must make the per-sample tables an exact no-op: the
/// guard crossings carry mm_off = 0.0 and the thresholds reduce to the
/// nominal bisection result. The nominal FaiAdc and SampledFaiAdc read
/// the fine lines, so those are checked as well as the folders.
TEST(AdcEnsemble, ZeroMismatchSampleEqualsNominalFrontEnd) {
  const FoldingParams p;
  const FoldingEnsemble shared(p);
  const FoldingSampleFrontEnd fast(shared, FoldingMismatch::zero(p));
  const FoldingFrontEnd nominal(p);
  std::vector<double> fo(static_cast<std::size_t>(p.n_folders));
  for (const double vin : sweep(p, 300)) {
    fast.fold(vin, fo.data());
    for (int j = 0; j < p.n_folders; ++j) {
      EXPECT_EQ(fast.folder_output(j, vin), nominal.folder_output(j, vin));
    }
    for (int i = 0; i < p.fine_lines(); ++i) {
      EXPECT_EQ(fast.fine_signal_from(fo.data(), i),
                nominal.fine_signal(i, vin))
          << "line " << i << " vin " << vin;
      EXPECT_EQ(fast.fine_bit_from(fo.data(), i), nominal.fine_bit(i, vin));
    }
    EXPECT_EQ(fast.coarse_count(vin), nominal.coarse_count(vin));
  }
}

/// Full conversions against the reference: a Sample and a FaiAdc built
/// from the same stream, and the nominal FaiAdc (zero mismatch, fixed
/// noise seed) — noiseless over a sweep 10 mV past both range ends, and
/// with input noise drawn from the same stream in the same call order.
TEST(AdcEnsemble, ConversionsAreBitIdenticalToFaiAdc) {
  FaiAdcConfig config;
  ASSERT_GT(config.input_noise_rms, 0.0);
  const util::Rng stream = util::Rng(0xfeed).fork(5);
  const FaiAdcEnsemble shared(config);
  FaiAdcEnsemble::Sample fast = shared.sample(stream);
  FaiAdc adc(config, stream);
  FaiAdc nominal(config);
  const FoldingFrontEnd reference(
      config.folding, FoldingMismatch::sample(config.folding, config.sigmas,
                                              stream.fork(0)));
  const FoldingFrontEnd nominal_reference(config.folding);

  const double lo = config.folding.v_bottom - 10e-3;
  const double hi = config.folding.v_top + 10e-3;
  for (int k = 0; k < 4000; ++k) {
    const double vin = lo + (hi - lo) * (k + 0.37) / 4000;
    const int want = reference_code(reference, vin);
    ASSERT_EQ(fast.convert_noiseless(vin), want) << "vin " << vin;
    ASSERT_EQ(adc.convert_noiseless(vin), want) << "vin " << vin;
    ASSERT_EQ(nominal.convert_noiseless(vin),
              reference_code(nominal_reference, vin))
        << "vin " << vin;
  }

  util::Rng noise = stream.fork(1);
  util::Rng nominal_noise(0xadc0ffee);
  const double rms = config.input_noise_rms;
  const double mid = 0.5 * (config.folding.v_bottom + config.folding.v_top);
  for (int k = 0; k < 500; ++k) {
    const int want = reference_code(reference, mid + noise.gaussian(0.0, rms));
    ASSERT_EQ(fast.convert(mid), want) << "draw " << k;
    ASSERT_EQ(adc.convert(mid), want) << "draw " << k;
    ASSERT_EQ(nominal.convert(mid),
              reference_code(nominal_reference,
                             mid + nominal_noise.gaussian(0.0, rms)))
        << "draw " << k;
  }
}

/// The histogram ramp carries each folder's crossing search from one
/// input to the next while the input rises: its codes must equal the
/// per-line reference at every ramp point, noiseless and with input
/// noise (a falling input restarts the searches). Codes tolerate a
/// folder output that is off in its last bits, so the ramp's folder
/// outputs must also equal fold()'s bitwise.
TEST(AdcEnsemble, RampCodesEqualThePerLineReference) {
  for (const double noise_rms : {0.0, FaiAdcConfig{}.input_noise_rms}) {
    FaiAdcConfig config;
    config.input_noise_rms = noise_rms;
    const FaiAdcEnsemble shared(config);
    const int samples_per_code = 4;
    const int total = shared.n_codes() * samples_per_code;
    for (std::uint64_t inst = 0; inst < 4; ++inst) {
      const util::Rng stream = util::Rng(31).fork(inst);
      const FoldingMismatch mm =
          FoldingMismatch::sample(config.folding, config.sigmas, stream);
      FaiAdcEnsemble::Sample sample(shared, mm, stream.fork(1));
      const std::vector<int> codes = sample.ramp_codes(samples_per_code);
      ASSERT_EQ(static_cast<int>(codes.size()), total);

      const FoldingFrontEnd reference(config.folding, mm);
      const FoldingSampleFrontEnd& front_end = sample.front_end();
      FoldingSampleFrontEnd::Ramp ramp;
      std::vector<double> fo(config.folding.n_folders);
      std::vector<double> fo_plain(config.folding.n_folders);
      util::Rng noise = stream.fork(1);
      const double lo = shared.v_bottom();
      const double hi = shared.v_top();
      for (int k = 0; k < total; ++k) {
        double v = lo + (hi - lo) * (k + 0.5) / total;
        if (noise_rms > 0) v += noise.gaussian(0.0, noise_rms);
        ASSERT_EQ(codes[static_cast<std::size_t>(k)],
                  reference_code(reference, v))
            << "noise " << noise_rms << " inst " << inst << " point " << k;
        front_end.fold(v, fo.data(), ramp);
        front_end.fold(v, fo_plain.data());
        ASSERT_EQ(fo, fo_plain)
            << "noise " << noise_rms << " inst " << inst << " point " << k;
      }
    }
  }
}

/// The Monte-Carlo summaries must be invariant under the job count:
/// same instance streams, same estimators, bitwise-equal result vectors.
TEST(AdcEnsemble, MonteCarloLinearityInvariantUnderEngineAndJobs) {
  FaiAdcConfig config;
  const int instances = 6;
  const std::uint64_t seed = 2024;
  const auto ens = monte_carlo_linearity(config, instances, seed, 1);
  const auto ens8 = monte_carlo_linearity(config, instances, seed, 8);
  ASSERT_EQ(ens.max_inl.size(), ens8.max_inl.size());
  for (int i = 0; i < instances; ++i) {
    EXPECT_EQ(ens.max_inl[i], ens8.max_inl[i]) << i;
    EXPECT_EQ(ens.max_dnl[i], ens8.max_dnl[i]) << i;
  }
  EXPECT_EQ(ens.worst_inl, ens8.worst_inl);
  EXPECT_EQ(ens.mean_dnl, ens8.mean_dnl);
}

TEST(AdcEnsemble, MonteCarloEnobInvariantUnderEngineAndJobs) {
  FaiAdcConfig config;
  const int instances = 4;
  const std::uint64_t seed = 77;
  const std::size_t record = 1024;
  const auto ens =
      monte_carlo_enob(config, instances, seed, 1, record, McEngine::kEnsemble);
  const auto ens8 = monte_carlo_enob(config, instances, seed, 8, record);
  ASSERT_EQ(ens.enob.size(), ens8.enob.size());
  for (int i = 0; i < instances; ++i) {
    EXPECT_EQ(ens.enob[i], ens8.enob[i]) << i;
  }
  EXPECT_EQ(ens.mean_enob, ens8.mean_enob);
  EXPECT_EQ(ens.worst_enob, ens8.worst_enob);
}

}  // namespace
}  // namespace sscl::adc
