/// Extension experiment (paper Section III-B: "using large enough
/// transistor sizes can minimize the effect of current mismatch both in
/// analog and digital parts"): Monte-Carlo yield of the ADC versus the
/// device sizing that sets the mismatch sigmas (Pelgrom scaling). Yield
/// criterion: INL <= 1 LSB and DNL <= 0.5 LSB (the paper's Fig. 11
/// class).

#include "adc/ensemble.hpp"
#include "bench_common.hpp"

using namespace sscl;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv, 42);
  bench::banner("EXT-Y", "ADC yield vs device sizing (Pelgrom scaling)");

  const int kInstances = 16;
  // 'size_factor' scales device edge length: sigmas shrink as 1/size.
  const std::vector<double> sizes = {0.5, 1.0, 2.0, 4.0};

  struct YieldPoint {
    double sigma_scale = 0.0;
    double mean_inl = 0.0;
    double mean_dnl = 0.0;
    double yield = 0.0;
  };
  // The outer sweep stays serial (jobs_override = 1): each size fans
  // its Monte-Carlo instances out over args.jobs workers instead, which
  // parallelises the expensive part without oversubscribing.
  bench::sweep_table(
      args,
      {"size factor", "sigma scale", "mean INL", "mean DNL",
       "yield (INL<=1, DNL<=0.5)"},
      "bench_yield.csv", {"size", "mean_inl", "mean_dnl", "yield"}, sizes,
      [&](const double& size, std::size_t) {
        adc::FaiAdcConfig cfg;
        const double s = 1.0 / size;
        cfg.sigmas.folder_offset *= s;
        cfg.sigmas.interp_gain *= s;
        cfg.sigmas.fine_comp_offset *= s;
        cfg.sigmas.coarse_comp_offset *= s;
        cfg.sigmas.coarse_ref *= s;

        const adc::MonteCarloLinearity mc = adc::monte_carlo_linearity(
            cfg, kInstances, args.seed, args.jobs);
        YieldPoint pt;
        pt.sigma_scale = s;
        pt.mean_inl = mc.mean_inl;
        pt.mean_dnl = mc.mean_dnl;
        int pass = 0;
        for (int i = 0; i < kInstances; ++i) {
          if (mc.max_inl[i] <= 1.0 && mc.max_dnl[i] <= 0.5) ++pass;
        }
        pt.yield = static_cast<double>(pass) / kInstances;
        return pt;
      },
      [&](util::Table& row, const double& size, const YieldPoint& pt,
          std::size_t) {
        row.add(size, 3)
            .add(pt.sigma_scale, 3)
            .add(pt.mean_inl, 3)
            .add(pt.mean_dnl, 3)
            .add(util::format_si(100.0 * pt.yield, "%", 3));
        return std::vector<double>{size, pt.mean_inl, pt.mean_dnl, pt.yield};
      },
      /*jobs_override=*/1);

  bench::footnote(
      "Paper claim: device area is the knob against mismatch (Pelgrom:\n"
      "sigma ~ 1/sqrt(WL)). Doubling the linear size of the matched\n"
      "devices halves every offset sigma and moves the converter from\n"
      "marginal to comfortable Fig. 11-class linearity; the area cost is\n"
      "what the paper's 0.6 mm^2 die pays for its medium accuracy.");
  return 0;
}
