// Self-tests of the benchmark: generators, order statistics, failure
// accounting and the payload tolerance, the negative self-test and
// counter determinism. Run them
// with `python3 perfbench/run.py --test` from the root of a checkout.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

#include "generators.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

namespace {

std::string g_root = ".";
std::string g_work_dir = ".bench_build/work";

/// A short run on the normal timed path: every window still covers at
/// least one schedule cycle (serve_mix: its counted job prefix).
perfbench::RunConfig short_run(bool trace) {
  perfbench::RunConfig c;
  c.seed = 7;
  c.seconds = 0.2;
  c.trace = trace;
  c.root = g_root;
  c.work_dir = g_work_dir;
  return c;
}

/// The printed per-layer rows named in \p names.
std::map<std::string, double> rows(const perfbench::WorkloadResult& r,
                                   const std::vector<std::string>& names) {
  std::map<std::string, double> out;
  for (const perfbench::Metric& m : r.per_layer) {
    for (const std::string& n : names) {
      if (m.name == n) out[n] = m.value;
    }
  }
  return out;
}

TEST(Generators, SameSeedSameText) {
  using namespace perfbench;
  for (std::uint64_t seed : {1ULL, 2ULL, 99ULL}) {
    EXPECT_EQ(stscl_fabric_deck(seed, 50), stscl_fabric_deck(seed, 50));
    EXPECT_EQ(stscl_delay_line_deck(seed), stscl_delay_line_deck(seed));
    EXPECT_EQ(stscl_ac_gate_deck(seed), stscl_ac_gate_deck(seed));
    EXPECT_EQ(stscl_mc_gate_deck(seed), stscl_mc_gate_deck(seed));
    EXPECT_EQ(param_network_deck(seed, 3), param_network_deck(seed, 3));
    EXPECT_EQ(subvt_bench_deck(seed, 3, "c.inc"),
              subvt_bench_deck(seed, 3, "c.inc"));
  }
  EXPECT_NE(stscl_fabric_deck(1, 50), stscl_fabric_deck(2, 50));
  EXPECT_NE(param_network_deck(1, 1), param_network_deck(2, 1));
}

TEST(Generators, EditsMoveOnlyParamValues) {
  using namespace perfbench;
  const std::string a = param_network_deck(5, 1);
  const std::string b = param_network_deck(5, 2);
  ASSERT_NE(a, b);
  auto body = [](const std::string& deck) {
    std::string out;
    std::size_t pos = 0;
    while (pos < deck.size()) {
      const std::size_t nl = deck.find('\n', pos);
      const std::string line = deck.substr(pos, nl - pos);
      if (line.rfind(".param", 0) != 0 && line.rfind('*', 0) != 0) out += line;
      pos = nl + 1;
    }
    return out;
  };
  EXPECT_EQ(body(a), body(b));
}

TEST(Generators, DecksLintClean) {
  using namespace perfbench;
  std::filesystem::create_directories(g_work_dir);
  {
    std::FILE* f = std::fopen((g_work_dir + "/c.inc").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(subvt_card_file().c_str(), f);
    std::fclose(f);
  }
  sscl::netlist::ParseOptions parse;
  parse.include_loader = sscl::netlist::file_include_loader(g_work_dir);
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    EXPECT_EQ(lint_findings(stscl_fabric_deck(seed, 50), parse), 0) << seed;
    EXPECT_EQ(lint_findings(stscl_delay_line_deck(seed), parse), 0) << seed;
    EXPECT_EQ(lint_findings(stscl_ac_gate_deck(seed), parse), 0) << seed;
    EXPECT_EQ(lint_findings(stscl_mc_gate_deck(seed), parse), 0) << seed;
    EXPECT_EQ(lint_findings(param_network_deck(seed, seed), parse), 0) << seed;
    EXPECT_EQ(lint_findings(subvt_bench_deck(seed, seed, "c.inc"), parse), 0)
        << seed;
  }
}

TEST(Stats, MedianAndQuartilesMatchPython) {
  using perfbench::median;
  using perfbench::quartiles;
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const std::vector<double> v = {10, 2, 3, 4, 5, 6, 7, 8, 9, 1};
  EXPECT_DOUBLE_EQ(median(v), 5.5);
  EXPECT_DOUBLE_EQ(quartiles(v).q1, 2.75);
  EXPECT_DOUBLE_EQ(quartiles(v).q3, 8.25);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const std::vector<double> w = {16, 8, 4, 2, 1};
  EXPECT_DOUBLE_EQ(median(w), 4.0);
  EXPECT_DOUBLE_EQ(quartiles(w).q1, 1.5);
  EXPECT_DOUBLE_EQ(quartiles(w).q3, 12.0);
  const perfbench::Metric t = perfbench::timing("t", w, "ms");
  EXPECT_DOUBLE_EQ(t.value, 4.0);
  EXPECT_EQ(t.samples, 5);
  EXPECT_DOUBLE_EQ(t.iqr.q3, 12.0);
}

TEST(Stats, GroupedP50IsTheGeometricMeanOfGroupMedians) {
  // Pooled, the median would be 2.0 (the larger group's time alone).
  const perfbench::Metric m =
      perfbench::grouped_p50("p50", {{2, 2, 2, 2, 2}, {8, 8, 8}});
  EXPECT_DOUBLE_EQ(m.value, 4.0);
  EXPECT_EQ(m.samples, 8);
  EXPECT_EQ(m.unit, "ms");
}

TEST(Stats, PercentileNeedsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  EXPECT_EQ(perfbench::samples_beyond(v.size(), 99), 9u);
  EXPECT_FALSE(perfbench::percentile(v, 99).has_value());
  v.push_back(1000);
  EXPECT_EQ(perfbench::samples_beyond(v.size(), 99), 10u);
  ASSERT_TRUE(perfbench::percentile(v, 99).has_value());
  EXPECT_DOUBLE_EQ(*perfbench::percentile(v, 99), 990.0);
  EXPECT_FALSE(perfbench::percentile(std::vector<double>(19, 1.0), 50));
  EXPECT_TRUE(perfbench::percentile(std::vector<double>(20, 1.0), 50));
}

TEST(FailRatio, BusyAndErrorsCountAsFailures) {
  EXPECT_TRUE(perfbench::reply_succeeded({"QUEUED 1", "BEGIN 1", "END ok"}));
  EXPECT_FALSE(perfbench::reply_succeeded({"BUSY retry-after-ms=50",
                                           "END busy"}));
  EXPECT_FALSE(perfbench::reply_succeeded({"QUEUED 2", "ERROR x", "END error"}));
  perfbench::WorkloadResult r;
  r.attempted = 8;
  r.failed = 2;
  EXPECT_DOUBLE_EQ(r.fail_ratio(), 0.25);
}

TEST(FailRatio, PatternTierComparesMeasuresRelative) {
  using perfbench::payload_matches;
  const std::string ref =
      "TRAN points 812\n"
      "TRAN v(out) 0 0.0012 0.59881 0.59873\n"
      "MEASURE tpr,1.0649e-08,\n"
      "MEASURE evdd,3.1416e-14,\n";
  // Node voltages may move by reltol plus 10 x vntol.
  std::string v = ref;
  v.replace(v.find("0.0012"), 6, "0.0012004");
  EXPECT_TRUE(payload_matches(v, ref, /*pattern_tier=*/true));
  EXPECT_FALSE(payload_matches(v, ref, /*pattern_tier=*/false));
  // A measure scaled by 1% fails however small it is...
  std::string tpr = ref;
  tpr.replace(tpr.find("1.0649e-08"), 10, "1.075549e-08");
  EXPECT_FALSE(payload_matches(tpr, ref, true));
  std::string evdd = ref;
  evdd.replace(evdd.find("3.1416e-14"), 10, "-3.1416e-14");
  EXPECT_FALSE(payload_matches(evdd, ref, true));
  // ...while round-off within reltol of the value passes.
  std::string close = ref;
  close.replace(close.find("1.0649e-08"), 10, "1.06491e-08");
  EXPECT_TRUE(payload_matches(close, ref, true));
  // Point counts compare relative too, and the lines must line up.
  std::string points = ref;
  points.replace(points.find("812"), 3, "813");
  EXPECT_FALSE(payload_matches(points, ref, true));
  EXPECT_FALSE(payload_matches(ref + "MEASURE x,1,\n", ref, true));
}

TEST(FailRatio, CorruptedReferenceIsCaught) {
  for (auto* run : {&perfbench::run_serve_mix, &perfbench::run_tran_stscl,
                    &perfbench::run_mc_yield}) {
    perfbench::RunConfig c = short_run(/*trace=*/false);
    const perfbench::WorkloadResult clean = (*run)(c);
    EXPECT_GT(clean.attempted, 0);
    EXPECT_EQ(clean.failed, 0);
    c.corrupt_reference = true;
    const perfbench::WorkloadResult bad = (*run)(c);
    EXPECT_GT(bad.fail_ratio(), 0.0);
  }
}

/// Two traced runs with one seed print the same exact counters (the
/// first schedule cycle; serve_mix: its counted job prefix), and the
/// ones every run exercises are not 0.
TEST(Determinism, SameSeedSameCounters) {
  using Run = perfbench::WorkloadResult (*)(const perfbench::RunConfig&);
  const std::vector<std::pair<Run, std::vector<std::string>>> cases = {
      {&perfbench::run_serve_mix,
       {"serve.cache.hit.elab", "serve.cache.hit.pattern", "serve.cache.miss",
        "serve.cache.evictions"}},
      {&perfbench::run_tran_stscl,
       {"spice.newton_iterations", "spice.device_evals", "spice.full_factors",
        "spice.transient_steps"}},
      {&perfbench::run_mc_yield,
       {"ensemble.lane_iterations", "ensemble.soa_batches",
        "ensemble.factor_adoptions", "adc.instances"}},
  };
  const std::vector<std::string> also_equal = {
      "serve.admission.rejects", "spice.bypass_hits", "spice.numeric_refactors",
      "spice.singular_factors", "spice.transient_rejects_lte",
      "spice.transient_rejects_newton", "spice.gmin_steps",
      "spice.source_steps", "ensemble.batched_share"};
  for (const auto& [run, nonzero] : cases) {
    const perfbench::RunConfig c = short_run(/*trace=*/true);
    const perfbench::WorkloadResult a = run(c);
    const perfbench::WorkloadResult b = run(c);
    EXPECT_EQ(a.failed, 0);
    std::vector<std::string> names = nonzero;
    names.insert(names.end(), also_equal.begin(), also_equal.end());
    EXPECT_EQ(rows(a, names), rows(b, names));
    for (const auto& [name, value] : rows(a, nonzero)) {
      EXPECT_GT(value, 0) << name;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") g_root = argv[++i];
    if (arg == "--work-dir") g_work_dir = argv[++i];
  }
  return RUN_ALL_TESTS();
}
