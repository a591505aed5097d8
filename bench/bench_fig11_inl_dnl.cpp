/// Experiment F11 (paper Fig. 11): measured INL and DNL of the FAI ADC.
/// Code-density (histogram) test on Monte-Carlo mismatch instances --
/// the same lab procedure behind the paper's measured 1.0 LSB INL /
/// 0.4 LSB DNL -- plus the nominal (mismatch-free) transfer.

#include "adc/fai_adc.hpp"
#include "bench_common.hpp"

using namespace sscl;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv, 2026);
  bench::banner("F11", "ADC INL / DNL (paper Fig. 11)");

  adc::FaiAdcConfig cfg;

  // --- nominal instance: the systematic (interpolation-bow) floor.
  {
    adc::FaiAdcConfig clean = cfg;
    clean.input_noise_rms = 0.0;
    adc::FaiAdc nominal(clean);
    const analysis::LinearityResult lin = nominal.linearity();
    std::printf("nominal (no mismatch): INL = %.3f LSB, DNL = %.3f LSB "
                "(interpolation bow only)\n\n",
                lin.max_abs_inl, lin.max_abs_dnl);
  }

  // --- Monte-Carlo instances, histogram method. Instance i derives
  // from Rng(seed).fork(i), so the ensemble is bit-identical at any
  // --jobs value.
  const int kInstances = 12;
  const adc::MonteCarloLinearity mc =
      adc::monte_carlo_linearity(cfg, kInstances, args.seed, args.jobs);

  util::Table t({"instance", "max |INL| [LSB]", "max |DNL| [LSB]"});
  for (int i = 0; i < kInstances; ++i) {
    t.row()
        .add(static_cast<long long>(i))
        .add(mc.max_inl[i], 3)
        .add(mc.max_dnl[i], 3);
  }
  std::cout << t;
  std::printf(
      "\nmean over %d instances: INL = %.3f LSB, DNL = %.3f LSB\n"
      "worst instance:          INL = %.3f LSB, DNL = %.3f LSB\n",
      kInstances, mc.mean_inl, mc.mean_dnl, mc.worst_inl, mc.worst_dnl);

  // --- full INL/DNL curve of one representative instance (CSV).
  const std::string csv_path = args.csv_path("bench_fig11_inl_dnl.csv");
  if (!csv_path.empty()) {
    // The same mismatch realisation as Monte-Carlo instance #0 above
    // (pure function of (seed, 0)), with the noise stream enabled.
    adc::FaiAdc inst(cfg, util::Rng(args.seed).fork(0));
    const analysis::LinearityResult lin = inst.linearity_histogram(32);
    util::CsvWriter csv(csv_path, {"code", "dnl", "inl"});
    for (std::size_t k = 0; k < lin.dnl.size(); ++k) {
      csv.write_row({static_cast<double>(k + 1), lin.dnl[k], lin.inl[k]});
    }
    std::printf("per-code curves of instance #0 -> %s\n", csv_path.c_str());
  }

  bench::footnote(
      "Paper measurement (Fig. 11): INL = 1.0 LSB, DNL = 0.4 LSB on the\n"
      "fabricated chip. The Monte-Carlo ensemble here brackets those\n"
      "numbers; INL exceeds DNL because folder-offset errors correlate\n"
      "across the 8 lines each folder feeds (segment-shaped INL bumps,\n"
      "as in the measured figure).");
  return 0;
}
