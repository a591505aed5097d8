/// mc_yield: one thread alternating the two Monte-Carlo batch kinds of
/// the paper's Fig. 11 linearity/yield question (perfbench/README.md):
///  * one point of the bench_yield sweep: 16 behavioural ADC instances
///    x a 4096-conversion histogram at one Pelgrom size factor, on the
///    ensemble engine;
///  * a spice DC-op ensemble of 4096 mismatch samples of a generated
///    STSCL gate deck (the deck_runner --mc path: Topology +
///    EnsembleEngine), every MOSFET on the batched SoA path.

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "adc/ensemble.hpp"
#include "adc/fai_adc.hpp"
#include "generators.hpp"
#include "netlist/netlist.hpp"
#include "spice/ensemble.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kAdcInstances = 16;
constexpr int kSamplesPerCode = 16;  // FaiAdc::linearity_histogram default
constexpr std::uint64_t kSpiceSamples = 4096;
constexpr double kSizes[] = {0.5, 1.0, 2.0, 4.0};  // bench_yield's sweep
constexpr long long kCycle = 8;  // (adc, spice) x the four sizes
constexpr std::uint64_t kBenchYieldSeed = 42;

/// bench_yield's configuration at one size factor: sigmas shrink as
/// 1/size (Pelgrom scaling).
sscl::adc::FaiAdcConfig sized_config(double size) {
  sscl::adc::FaiAdcConfig cfg;
  const double s = 1.0 / size;
  cfg.sigmas.folder_offset *= s;
  cfg.sigmas.interp_gain *= s;
  cfg.sigmas.fine_comp_offset *= s;
  cfg.sigmas.coarse_comp_offset *= s;
  cfg.sigmas.coarse_ref *= s;
  return cfg;
}

sscl::adc::MonteCarloLinearity adc_batch(double size, std::uint64_t seed) {
  sscl::trace::Span span(kSpanAdc, "bench");
  return sscl::adc::monte_carlo_linearity(sized_config(size), kAdcInstances,
                                          seed, /*jobs=*/1,
                                          sscl::adc::McEngine::kEnsemble);
}

/// The bench_yield.csv rows recomputed, formatted as its CSV writer does.
std::string bench_yield_csv() {
  std::ostringstream os;
  os << "size,mean_inl,mean_dnl,yield\n";
  os.precision(12);
  for (double size : kSizes) {
    const auto mc = adc_batch(size, kBenchYieldSeed);
    int pass = 0;
    for (int i = 0; i < kAdcInstances; ++i) {
      if (mc.max_inl[i] <= 1.0 && mc.max_dnl[i] <= 0.5) ++pass;
    }
    os << size << ',' << mc.mean_inl << ',' << mc.mean_dnl << ','
       << static_cast<double>(pass) / kAdcInstances << '\n';
  }
  return os.str();
}

struct Setup {
  std::string deck;
  std::unique_ptr<sscl::spice::Topology> topology;
  std::vector<sscl::spice::NodeId> nodes;
};

Setup make_setup(const RunConfig& config) {
  Setup s;
  s.deck = stscl_mc_gate_deck(config.seed);
  sscl::netlist::ParseOptions parse;
  parse.name = "mc_gate";
  if (lint_findings(s.deck, parse) != 0) {
    throw std::runtime_error("generated deck mc_gate does not lint clean");
  }
  const std::string text = s.deck;
  s.topology = std::make_unique<sscl::spice::Topology>([text, parse] {
    sscl::trace::Span span(kSpanReplica, "bench");
    return std::move(sscl::netlist::parse_netlist(text, parse).circuit);
  });
  if (!s.topology->batchable()) {
    throw std::runtime_error("mc_gate deck is not on the batched path");
  }
  for (int n = 0; n < s.topology->circuit().node_count(); ++n) {
    s.nodes.push_back(n);
  }
  return s;
}

struct Window {
  long long ops = 0;
  long long failed = 0;
  std::vector<double> cycle_seconds;
  /// Batch times by schedule position: one group per size (ADC) or
  /// sample seed (spice).
  std::map<long long, std::vector<double>> adc_ms, spice_ms;
  sscl::spice::EnsembleStats prefix;  ///< summed over the first cycle
  long long prefix_instances = 0;
  RootUsage usage;
  long long adc_ops = 0;
  double adc_seconds = 0.0, spice_seconds = 0.0, spice_samples = 0.0;
};

/// Run whole schedule cycles (at least one) until \p seconds have
/// passed, calling \p between (if set) between cycles, outside their
/// times; every batch must repeat its first digest.
Window run_window(const RunConfig& config, const Setup& setup, double seconds,
                  std::map<long long, std::uint64_t>& first_digest,
                  TraceCapture* capture,
                  const std::function<void()>& between = {}) {
  Window w;
  CpuRotation cpus;
  const auto t0 = Clock::now();
  auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  auto cycle_start = t0;
  double cycle_drain = 0.0;  // trace drains inside the current cycle
  for (long long op = 0;; ++op) {
    if (op % kCycle == 0) {
      if (op > 0) {
        w.cycle_seconds.push_back(since(cycle_start) - cycle_drain);
        if (between) between();
        cycle_start = Clock::now();
        cycle_drain = 0.0;
      }
      if (op > 0 && since(t0) >= seconds) break;
    }
    cpus.between_ops();
    const long long pos = op % kCycle;
    const bool adc = pos % 2 == 0;
    const std::uint64_t seed = derive_seed(config.seed, 100 + pos);
    const auto s0 = Clock::now();
    bool ok = true;
    std::uint64_t digest = 0;
    try {
      sscl::trace::Span op_span(kSpanOp, "bench", "op", op);
      if (adc) {
        const auto mc = adc_batch(kSizes[pos / 2], seed);
        digest = fnv1a(mc.max_inl.data(), mc.max_inl.size() * sizeof(double));
        digest = fnv1a(mc.max_dnl.data(), mc.max_dnl.size() * sizeof(double),
                       digest);
        if (op < kCycle) w.prefix_instances += kAdcInstances;
      } else {
        sscl::trace::Span span(kSpanEnsemble, "bench");
        sscl::spice::EnsembleOptions opts;
        opts.jobs = 1;
        sscl::spice::EnsembleEngine engine(*setup.topology, opts);
        const auto rows = engine.run(
            kSpiceSamples, seed,
            [&](std::uint64_t, const sscl::spice::Solution& sol) {
              std::vector<double> row;
              row.reserve(setup.nodes.size());
              for (auto n : setup.nodes) row.push_back(sol.v(n));
              return row;
            });
        digest = 0xcbf29ce484222325ULL;
        for (const auto& row : rows) {
          digest = fnv1a(row.data(), row.size() * sizeof(double), digest);
        }
        const auto& st = engine.stats();
        if (st.fallback_samples != 0) ok = false;
        if (op < kCycle) {
          w.prefix.samples += st.samples;
          w.prefix.batched_samples += st.batched_samples;
          w.prefix.fallback_samples += st.fallback_samples;
          w.prefix.soa_batches += st.soa_batches;
          w.prefix.newton_iterations += st.newton_iterations;
          w.prefix.factor_adoptions += st.factor_adoptions;
          w.prefix.numeric_refactors += st.numeric_refactors;
          w.prefix.full_factors += st.full_factors;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mc_yield: op %lld: %s\n", op, e.what());
      ok = false;
    }
    const double secs = since(s0);
    if (adc) {
      w.adc_ms[pos].push_back(secs * 1e3);
      w.adc_seconds += secs;
      ++w.adc_ops;
    } else {
      w.spice_ms[pos].push_back(secs * 1e3);
      w.spice_seconds += secs;
      w.spice_samples += static_cast<double>(kSpiceSamples);
    }
    auto [it, fresh] = first_digest.emplace(pos, digest);
    if (!fresh && it->second != digest) ok = false;
    if (!ok) ++w.failed;
    ++w.ops;
    if (capture) {
      const auto d0 = Clock::now();
      for (const RootUsage& u : attribute(capture->drain(), kSpanOp)) {
        w.usage.merge(u);
      }
      cycle_drain += since(d0);
    }
  }
  return w;
}

}  // namespace

WorkloadResult run_mc_yield(const RunConfig& config) {
  WorkloadResult r;
  // setup_s: the median of the first set-up, counted from process
  // start, and of one more (built and dropped) after every schedule
  // cycle of the untraced window, as on tran_stscl.
  const Setup setup = make_setup(config);
  std::vector<double> setups = {process_seconds()};
  auto resetup = [&] {
    const double s0 = process_seconds();
    make_setup(config);
    setups.push_back(process_seconds() - s0);
  };
  std::map<long long, std::uint64_t> first_digest;
  auto check_bench_yield = [&] {
    std::string expected = read_file(config.root + "/bench_yield.csv");
    if (config.corrupt_reference) expected[expected.size() / 2] ^= 1;
    ++r.attempted;
    if (bench_yield_csv() != expected) {
      std::fprintf(stderr, "mc_yield: ADC rows differ from bench_yield.csv\n");
      ++r.failed;
    }
  };
  const double window = config.trace ? config.seconds / 2 : config.seconds;
  const Window plain =
      run_window(config, setup, window, first_digest, nullptr, resetup);
  r.attempted = plain.ops;
  r.failed = plain.failed;
  check_bench_yield();
  auto groups = [](const std::map<long long, std::vector<double>>& by_pos) {
    std::vector<std::vector<double>> out;
    for (const auto& [pos, ms] : by_pos) out.push_back(ms);
    return out;
  };
  r.end_to_end = {
      timing("setup_s", setups, "s"),
      timing("ops_per_s", cycle_rates(plain.cycle_seconds, kCycle), "1/s"),
      grouped_p50("kind1_p50_ms", groups(plain.adc_ms)),
      grouped_p50("kind2_p50_ms", groups(plain.spice_ms)),
      {"peak_rss_mb", peak_rss_mb(), "MB", 0, {}},
  };
  if (!config.trace) return r;

  Window traced;
  unsigned long long dropped = 0;
  {
    TraceCapture capture;
    traced = run_window(config, setup, window, first_digest, &capture);
    dropped = capture.dropped();
  }
  r.attempted += traced.ops;
  r.failed += traced.failed;
  LayerTable t;
  t.set("trace.dropped", static_cast<double>(dropped));
  // Same estimator on both halves (drains excluded), so the first
  // cycles' one-off page faults do not read as negative overhead.
  t.set("trace.overhead",
        1.0 - median(cycle_rates(traced.cycle_seconds, kCycle)) /
                  median(cycle_rates(plain.cycle_seconds, kCycle)));
  t.set("fail_ratio", r.fail_ratio());
  fill_span_layers(traced.usage, traced.ops, t);
  const auto& st = traced.prefix;
  t.set("ensemble.samples_per_s",
        traced.spice_seconds > 0 ? traced.spice_samples / traced.spice_seconds
                                 : 0.0);
  t.set("ensemble.batched_share",
        st.samples > 0 ? static_cast<double>(st.batched_samples) / st.samples
                       : 0.0);
  t.set("ensemble.lane_iterations", static_cast<double>(st.newton_iterations));
  t.set("ensemble.soa_batches", static_cast<double>(st.soa_batches));
  t.set("ensemble.factor_adoptions", static_cast<double>(st.factor_adoptions));
  const double conversions =
      static_cast<double>(kAdcInstances) *
      sized_config(1.0).folding.total_codes() * kSamplesPerCode;
  t.set("adc.conversions_per_s",
        traced.adc_seconds > 0
            ? conversions * traced.adc_ops / traced.adc_seconds
            : 0.0);
  t.set("adc.instances", static_cast<double>(traced.prefix_instances));
  t.set("spice.unknowns", setup.topology->circuit().unknown_count());
  t.set("spice.pattern_entries", static_cast<double>(
      setup.topology->master_system().pattern_entries()));
  t.set("spice.sparse", setup.topology->master_system().is_sparse() ? 1 : 0);
  r.per_layer = t.metrics();
  return r;
}

}  // namespace perfbench
