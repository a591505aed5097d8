#include "adc/fai_adc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "digital/encoder.hpp"
#include "digital/eventsim.hpp"
#include "digital/fmax.hpp"

namespace sscl::adc {
namespace {

TEST(SoftwareEncoder, MatchesReferenceOnCleanPatterns) {
  using digital::coarse_raw_count;
  using digital::fine_pattern;
  using digital::thermometer;
  for (int seg = 0; seg <= 7; ++seg) {
    for (int pos = 0; pos < 32; ++pos) {
      const auto cw = static_cast<std::uint32_t>(
          thermometer(coarse_raw_count(seg, pos), 8));
      const std::uint64_t fw = fine_pattern(seg, pos);
      EXPECT_EQ(software_encode(cw, fw), seg * 32 + pos)
          << seg << "," << pos;
    }
  }
}

TEST(SoftwareEncoder, MatchesGateLevelNetlistOnRandomPatterns) {
  // The strongest digital check: arbitrary (even invalid) patterns give
  // the same answer in software and in the event-driven netlist.
  digital::Netlist nl;
  digital::EncoderIo io = digital::build_fai_encoder(nl);
  stscl::SclModel timing;
  timing.vsw = 0.2;
  timing.cl = 12e-15;
  digital::EventSim sim(nl, timing, 1e-9);
  sim.set_input(io.clock, false);

  util::Rng rng(77);
  const double period = 30.0 * timing.delay(1e-9);
  for (int trial = 0; trial < 30; ++trial) {
    const auto cw = static_cast<std::uint32_t>(rng.bounded(256));
    const std::uint64_t fw = rng.next_u64() & 0xFFFFFFFFULL;
    for (int i = 0; i < 8; ++i) sim.set_input(io.coarse_in[i], (cw >> i) & 1);
    for (int i = 0; i < 32; ++i) sim.set_input(io.fine_in[i], (fw >> i) & 1);
    for (int k = 0; k < 10; ++k) {
      sim.run_until(sim.time() + period / 2);
      sim.set_input(io.clock, true);
      sim.run_until(sim.time() + period / 2);
      sim.set_input(io.clock, false);
    }
    sim.settle();
    const digital::EncodedValue v = digital::read_outputs(sim, io);
    EXPECT_EQ(v.coarse * 32 + v.fine, software_encode(cw, fw))
        << "cw=" << cw << " fw=" << fw;
  }
}

TEST(FaiAdc, NominalTransferIsExact) {
  FaiAdcConfig cfg;
  cfg.input_noise_rms = 0.0;
  FaiAdc adc(cfg);
  for (int code = 0; code < 256; ++code) {
    const double x = adc.v_bottom() + (code + 0.5) * adc.lsb();
    EXPECT_EQ(adc.convert_noiseless(x), code) << code;
  }
}

TEST(FaiAdc, NominalLinearitySubLsb) {
  FaiAdcConfig cfg;
  FaiAdc adc(cfg);
  const analysis::LinearityResult lin = adc.linearity();
  // Only the interpolation bow remains: well under an LSB.
  EXPECT_LT(lin.max_abs_inl, 0.4);
  EXPECT_LT(lin.max_abs_dnl, 0.3);
  EXPECT_EQ(lin.missing_codes, 0);
}

TEST(FaiAdc, MonteCarloLinearityInPaperBand) {
  // Paper Fig. 11: INL = 1.0 LSB, DNL = 0.4 LSB for the fabricated chip.
  FaiAdcConfig cfg;
  const MonteCarloLinearity mc = monte_carlo_linearity(cfg, 8);
  EXPECT_GT(mc.mean_inl, 0.15);
  EXPECT_LT(mc.mean_inl, 2.0);
  EXPECT_GT(mc.mean_dnl, 0.1);
  EXPECT_LT(mc.mean_dnl, 1.2);
  EXPECT_LT(mc.worst_dnl, 2.0);
}

TEST(FaiAdc, NominalEnobNearEightBits) {
  FaiAdcConfig cfg;
  cfg.input_noise_rms = 0.0;
  FaiAdc adc(cfg);
  const analysis::DynamicMetrics m = adc.sine_enob();
  EXPECT_GT(m.enob, 7.3);
}

TEST(FaiAdc, EnobWithNoiseAndMismatchNearPaper) {
  // Paper: ENOB 6.5. Average a few Monte-Carlo instances, each on its
  // own forked mismatch stream.
  FaiAdcConfig cfg;
  const util::Rng base(11);
  double sum = 0;
  const int n = 4;
  for (int i = 0; i < n; ++i) {
    FaiAdc adc(cfg, base.fork(static_cast<std::uint64_t>(i)));
    sum += adc.sine_enob().enob;
  }
  const double mean_enob = sum / n;
  EXPECT_GT(mean_enob, 5.0);
  EXPECT_LT(mean_enob, 7.8);
}

TEST(FaiAdc, MonteCarloIsBitIdenticalAcrossJobCounts) {
  // The runner's determinism contract end-to-end: the MC ensemble gives
  // the same per-instance numbers at every thread count.
  FaiAdcConfig cfg;
  const MonteCarloLinearity serial = monte_carlo_linearity(cfg, 12, 2026, 1);
  const MonteCarloLinearity pooled = monte_carlo_linearity(cfg, 12, 2026, 8);
  ASSERT_EQ(serial.max_inl.size(), pooled.max_inl.size());
  for (std::size_t i = 0; i < serial.max_inl.size(); ++i) {
    EXPECT_EQ(serial.max_inl[i], pooled.max_inl[i]) << i;
    EXPECT_EQ(serial.max_dnl[i], pooled.max_dnl[i]) << i;
  }
  EXPECT_EQ(serial.mean_inl, pooled.mean_inl);
  EXPECT_EQ(serial.worst_dnl, pooled.worst_dnl);
}

TEST(FaiAdc, MonteCarloInstanceIsPureFunctionOfSeedAndIndex) {
  // Instance i must not depend on how many instances run before it:
  // growing the ensemble only appends, never reshuffles.
  FaiAdcConfig cfg;
  const MonteCarloLinearity small = monte_carlo_linearity(cfg, 4, 99, 1);
  const MonteCarloLinearity big = monte_carlo_linearity(cfg, 8, 99, 1);
  for (std::size_t i = 0; i < small.max_inl.size(); ++i) {
    EXPECT_EQ(small.max_inl[i], big.max_inl[i]) << i;
    EXPECT_EQ(small.max_dnl[i], big.max_dnl[i]) << i;
  }
  // And it matches a directly forked standalone instance.
  FaiAdcConfig quiet = cfg;
  quiet.input_noise_rms = 0.0;
  FaiAdc inst(quiet, util::Rng(99).fork(2));
  const analysis::LinearityResult lin = inst.linearity_histogram();
  EXPECT_EQ(lin.max_abs_inl, big.max_inl[2]);
  EXPECT_EQ(lin.max_abs_dnl, big.max_dnl[2]);
}

TEST(FaiAdc, MonteCarloEnobDeterministicAndInBand) {
  FaiAdcConfig cfg;
  const MonteCarloEnob serial = monte_carlo_enob(cfg, 4, 2026, 1, 512);
  const MonteCarloEnob pooled = monte_carlo_enob(cfg, 4, 2026, 4, 512);
  ASSERT_EQ(serial.enob.size(), 4u);
  for (std::size_t i = 0; i < serial.enob.size(); ++i) {
    EXPECT_EQ(serial.enob[i], pooled.enob[i]) << i;
  }
  EXPECT_GT(serial.mean_enob, 4.5);
  EXPECT_LT(serial.mean_enob, 8.0);
  EXPECT_LE(serial.worst_enob, serial.mean_enob);
}

TEST(FaiAdc, NoiseReducesEnob) {
  FaiAdcConfig clean;
  clean.input_noise_rms = 0.0;
  FaiAdcConfig noisy;
  noisy.input_noise_rms = 4e-3;
  FaiAdc a(clean), b(noisy);
  EXPECT_GT(a.sine_enob().enob, b.sine_enob().enob + 0.7);
}

TEST(FaiAdc, HistogramAndEdgeMethodsAgreeNominally) {
  FaiAdcConfig cfg;
  cfg.input_noise_rms = 0.0;
  FaiAdc adc(cfg);
  const auto edges = adc.linearity();
  const auto hist = adc.linearity_histogram(64);
  EXPECT_NEAR(edges.max_abs_dnl, hist.max_abs_dnl, 0.25);
  EXPECT_NEAR(edges.max_abs_inl, hist.max_abs_inl, 0.4);
}

TEST(FaiAdc, PatternsFeedTheRealEncoder) {
  // End-to-end via the gate-level encoder at a mid-scale input.
  FaiAdcConfig cfg;
  cfg.input_noise_rms = 0.0;
  FaiAdc adc(cfg);
  const double x = adc.v_bottom() + 100.5 * adc.lsb();
  EXPECT_EQ(software_encode(adc.coarse_pattern(x), adc.fine_pattern_bits(x)),
            100);
  EXPECT_EQ(adc.convert_noiseless(x), 100);
}

TEST(FaiAdc, MovedInstanceConvertsLikeTheOriginal) {
  // The converter's Sample refers to the shared half FaiAdc owns; moving
  // the FaiAdc (directly and through vector reallocation) must keep that
  // reference valid.
  FaiAdcConfig cfg;
  const util::Rng stream = util::Rng(31).fork(4);
  FaiAdc original(cfg, stream);
  std::vector<FaiAdc> grown;
  for (int i = 0; i < 5; ++i) grown.emplace_back(cfg, stream);
  FaiAdc moved(std::move(grown.front()));
  for (int k = 0; k < 256; ++k) {
    const double x = original.v_bottom() + (k + 0.5) * original.lsb();
    ASSERT_EQ(grown.back().convert_noiseless(x), original.convert_noiseless(x))
        << x;
    ASSERT_EQ(moved.convert(x), original.convert(x)) << x;
  }
}

TEST(FaiAdc, MonotoneAwayFromSliverWindows) {
  FaiAdcConfig cfg;
  cfg.input_noise_rms = 0.0;
  FaiAdc adc(cfg);
  int prev = -1;
  int nonmono = 0;
  for (int k = 0; k < 256 * 4; ++k) {
    const double x = adc.v_bottom() + (k + 0.5) * adc.lsb() / 4.0;
    const int c = adc.convert_noiseless(x);
    if (c < prev) ++nonmono;
    prev = c;
  }
  EXPECT_EQ(nonmono, 0);
}

}  // namespace
}  // namespace sscl::adc
