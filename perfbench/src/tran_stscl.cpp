/// tran_stscl: one thread on the deck_runner path (deck text -> lex ->
/// AST -> elaborate -> spice::Engine -> .op/.tran/.ac -> .measure),
/// cycling a fixed schedule of one sparse-LU fabric deck and
/// kCellsPerFabric dense-LU cell decks, weighted so each half takes
/// about half the host time on the seed code (perfbench/README.md).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "generators.hpp"
#include "netlist/lexer.hpp"
#include "netlist/measure.hpp"
#include "netlist/netlist.hpp"
#include "spice/ac.hpp"
#include "spice/engine.hpp"
#include "spice/transient.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Cell runs per fabric run in one schedule cycle (about equal host
/// time per half on the seed code).
constexpr int kCellsPerFabric = 160;
constexpr long long kCycle = kCellsPerFabric + 1;
constexpr int kFabricGates = 50;
constexpr const char* kGoldenDeck = "subvt_buffer_bench.sp";

struct DeckInput {
  std::string name;
  std::string text;
  sscl::netlist::ParseOptions parse;
  bool fabric = false;
};

/// What one deck run produced: the byte-comparable digest of every
/// result, the measure CSV alone, and the engine's exact counters.
struct DeckOutput {
  std::string digest;
  std::string measure_csv;
  sscl::spice::EngineStats stats;
  int unknowns = 0;
  std::size_t pattern_entries = 0;
  bool sparse = false;
  std::size_t elements = 0;
};

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

DeckOutput run_deck(const DeckInput& in, long long op_index) {
  namespace netlist = sscl::netlist;
  namespace spice = sscl::spice;
  sscl::trace::Span op_span(kSpanOp, "bench", "op", op_index);
  DeckOutput out;
  netlist::LexResult lexed = [&] {
    sscl::trace::Span span(kSpanLex, "bench");
    netlist::LexOptions lex_options;
    lex_options.include_loader = in.parse.include_loader;
    return netlist::lex_deck(in.text, in.parse.name, lex_options);
  }();
  netlist::Ast ast = [&] {
    sscl::trace::Span span(kSpanAst, "bench");
    return netlist::build_ast(std::move(lexed));
  }();
  netlist::Deck deck = [&] {
    sscl::trace::Span span(kSpanElaborate, "bench");
    return netlist::elaborate(std::move(ast), in.parse);
  }();
  out.elements = deck.circuit->devices().size();
  std::unique_ptr<spice::Engine> engine;
  {
    sscl::trace::Span span(kSpanEngine, "bench");
    engine = std::make_unique<spice::Engine>(*deck.circuit);
  }
  for (const auto* list : {&deck.ics, &deck.nodesets}) {
    for (const netlist::IcSpec& ic : *list) {
      if (auto n = deck.circuit->find_node(ic.node)) {
        engine->set_nodeset(*n, ic.volts);
      }
    }
  }
  const spice::Circuit& circuit = *deck.circuit;
  spice::Waveform tran;
  for (const netlist::AnalysisCard& card : deck.analyses) {
    switch (card.kind) {
      case netlist::AnalysisCard::Kind::kOp: {
        sscl::trace::Span span(kSpanOpAnalysis, "bench");
        const spice::Solution op = engine->solve_op();
        for (int n = 0; n < circuit.node_count(); ++n) {
          out.digest += "OP " + g17(op.v(n)) + "\n";
        }
        break;
      }
      case netlist::AnalysisCard::Kind::kTran: {
        sscl::trace::Span span(kSpanTran, "bench");
        spice::TransientOptions opts;
        opts.tstop = card.tstop;
        tran = spice::run_transient(*engine, opts);
        out.digest += "TRAN " + std::to_string(tran.size()) + "\n";
        break;
      }
      case netlist::AnalysisCard::Kind::kAc: {
        sscl::trace::Span span(kSpanAc, "bench");
        const spice::AcResult ac = spice::run_ac_decade(
            *engine, card.f_start, card.f_stop, card.points_per_decade);
        for (int n = 0; n < circuit.node_count(); ++n) {
          out.digest += "AC " + g17(ac.low_frequency_gain(n)) + " " +
                        g17(ac.bandwidth_3db(n)) + "\n";
        }
        break;
      }
      case netlist::AnalysisCard::Kind::kDc:
        throw std::runtime_error(in.name + ": .dc is not in this schedule");
    }
  }
  if (!deck.measures.empty()) {
    sscl::trace::Span span(kSpanMeasure, "bench");
    netlist::MeasureInput input;
    input.circuit = deck.circuit.get();
    input.tran = tran.empty() ? nullptr : &tran;
    input.params = &deck.params;
    out.measure_csv =
        netlist::measures_to_csv(netlist::run_measures(deck.measures, input));
    out.digest += out.measure_csv;
  }
  out.stats = engine->stats();
  out.unknowns = engine->unknown_count();
  out.pattern_entries = engine->linear_system().pattern_entries();
  out.sparse = engine->is_sparse();
  return out;
}

struct Decks {
  std::vector<DeckInput> cells;
  DeckInput fabric;
  std::string golden_csv;  ///< subvt_buffer_bench.golden.csv
};

Decks make_decks(const RunConfig& config) {
  Decks d;
  const std::string deck_dir = config.root + "/examples/decks";
  auto add = [](const std::string& name, std::string text) {
    DeckInput in;
    in.name = name;
    in.text = std::move(text);
    in.parse.name = name;
    return in;
  };
  d.cells.push_back(add(kGoldenDeck, read_file(deck_dir + "/" + kGoldenDeck)));
  d.cells.back().parse.include_loader =
      sscl::netlist::file_include_loader(deck_dir);
  d.cells.push_back(add("delay_line", stscl_delay_line_deck(config.seed)));
  d.cells.push_back(add("ac_gate", stscl_ac_gate_deck(config.seed)));
  d.fabric = add("fabric", stscl_fabric_deck(config.seed, kFabricGates));
  d.fabric.fabric = true;
  for (const DeckInput* in : {&d.cells[1], &d.cells[2], &d.fabric}) {
    if (lint_findings(in->text, in->parse) != 0) {
      throw std::runtime_error("generated deck " + in->name +
                               " does not lint clean");
    }
  }
  d.golden_csv = read_file(deck_dir + "/subvt_buffer_bench.golden.csv");
  if (config.corrupt_reference) d.golden_csv[d.golden_csv.size() / 2] ^= 1;
  return d;
}

/// Schedule position -> deck: op 0 of every cycle is the fabric.
const DeckInput& deck_at(const Decks& d, long long op) {
  const long long pos = op % kCycle;
  if (pos == 0) return d.fabric;
  const long long cells = static_cast<long long>(d.cells.size());
  return d.cells[static_cast<std::size_t>((pos - 1) % cells)];
}

struct Window {
  long long ops = 0;
  long long failed = 0;
  std::vector<double> cycle_seconds;
  std::map<std::string, std::vector<double>> cell_ms;  ///< by cell deck
  std::vector<double> fabric_ms;
  sscl::spice::EngineStats prefix_stats;  ///< summed over the first cycle
  DeckOutput fabric_out;                  ///< the last fabric run
  RootUsage usage, fabric_usage;          ///< traced windows only
  long long fabric_ops = 0;
};

void add_stats(sscl::spice::EngineStats& into,
               const sscl::spice::EngineStats& s) {
  into.newton_iterations += s.newton_iterations;
  into.device_evals += s.device_evals;
  into.bypass_hits += s.bypass_hits;
  into.full_factors += s.full_factors;
  into.numeric_refactors += s.numeric_refactors;
  into.singular_factors += s.singular_factors;
  into.factors += s.factors;
  into.transient_steps += s.transient_steps;
  into.transient_rejects_lte += s.transient_rejects_lte;
  into.transient_rejects_newton += s.transient_rejects_newton;
  into.op_gmin_steps += s.op_gmin_steps;
  into.op_source_steps += s.op_source_steps;
}

/// The exact engine counters, summed over the first schedule cycle.
void fill_engine_counters(const sscl::spice::EngineStats& st,
                          LayerTable& t) {
  t.set("spice.newton_iterations", static_cast<double>(st.newton_iterations));
  t.set("spice.device_evals", static_cast<double>(st.device_evals));
  t.set("spice.bypass_hits", static_cast<double>(st.bypass_hits));
  t.set("spice.bypass_rate", st.bypass_rate());
  t.set("spice.full_factors", static_cast<double>(st.full_factors));
  t.set("spice.numeric_refactors", static_cast<double>(st.numeric_refactors));
  t.set("spice.singular_factors", static_cast<double>(st.singular_factors));
  t.set("spice.transient_steps", static_cast<double>(st.transient_steps));
  t.set("spice.transient_rejects_lte",
        static_cast<double>(st.transient_rejects_lte));
  t.set("spice.transient_rejects_newton",
        static_cast<double>(st.transient_rejects_newton));
  t.set("spice.gmin_steps", static_cast<double>(st.op_gmin_steps));
  t.set("spice.source_steps", static_cast<double>(st.op_source_steps));
}

/// Run whole schedule cycles (at least one) until \p seconds have
/// passed, calling \p between (if set) between cycles, outside their
/// times. Every output is checked as it lands: each deck must repeat
/// its first digest, and the committed bench must match its golden CSV.
Window run_window(const Decks& decks, double seconds,
                  std::map<std::string, std::string>& first_digest,
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
    const DeckInput& in = deck_at(decks, op);
    const auto s0 = Clock::now();
    bool ok = true;
    DeckOutput out;
    try {
      out = run_deck(in, op);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tran_stscl: %s: %s\n", in.name.c_str(), e.what());
      ok = false;
    }
    (in.fabric ? w.fabric_ms : w.cell_ms[in.name]).push_back(since(s0) * 1e3);
    if (ok) {
      auto [it, fresh] = first_digest.emplace(in.name, out.digest);
      if (!fresh && it->second != out.digest) ok = false;
      if (in.name == kGoldenDeck && out.measure_csv != decks.golden_csv) {
        ok = false;
      }
    }
    if (!ok) ++w.failed;
    if (op < kCycle) add_stats(w.prefix_stats, out.stats);
    if (in.fabric) w.fabric_out = out;
    ++w.ops;
    if (capture) {
      const auto d0 = Clock::now();
      for (const RootUsage& u : attribute(capture->drain(), kSpanOp)) {
        w.usage.merge(u);
        if (in.fabric) w.fabric_usage.merge(u);
      }
      if (in.fabric) ++w.fabric_ops;
      cycle_drain += since(d0);
    }
  }
  return w;
}

}  // namespace

WorkloadResult run_tran_stscl(const RunConfig& config) {
  WorkloadResult r;
  // setup_s: the median of the first set-up, counted from process
  // start, and of one more (built and dropped) after every schedule
  // cycle of the untraced window. The host's speed drifts over seconds,
  // and set-ups spread over the window see the same drift as the other
  // figures instead of the first second's alone.
  const Decks decks = make_decks(config);
  std::vector<double> setups = {process_seconds()};
  auto resetup = [&] {
    const double s0 = process_seconds();
    make_decks(config);
    setups.push_back(process_seconds() - s0);
  };
  std::map<std::string, std::string> first_digest;
  const double window = config.trace ? config.seconds / 2 : config.seconds;
  const Window plain =
      run_window(decks, window, first_digest, nullptr, resetup);
  r.attempted = plain.ops;
  r.failed = plain.failed;
  std::vector<std::vector<double>> cells;
  for (const auto& [name, ms] : plain.cell_ms) cells.push_back(ms);
  r.end_to_end = {
      timing("setup_s", setups, "s"),
      timing("ops_per_s", cycle_rates(plain.cycle_seconds, kCycle), "1/s"),
      grouped_p50("kind1_p50_ms", cells),
      timing("kind2_p50_ms", plain.fabric_ms, "ms"),
      {"peak_rss_mb", peak_rss_mb(), "MB", 0, {}},
  };
  if (!config.trace) return r;

  Window traced;
  unsigned long long dropped = 0;
  {
    TraceCapture capture;
    traced = run_window(decks, window, first_digest, &capture);
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
  fill_engine_counters(traced.prefix_stats, t);
  const auto& st = traced.prefix_stats;
  const double tran_ms = traced.usage.total(kSpanTran);
  t.set("spice.us_per_step",
        st.transient_steps > 0
            ? 1e3 * tran_ms * kCycle / traced.ops / st.transient_steps
            : 0.0);
  t.set("spice.us_per_factor",
        st.factors > 0 ? 1e3 * traced.usage.self("factor") * kCycle /
                             traced.ops / st.factors
                       : 0.0);
  const double fops = static_cast<double>(std::max(1LL, traced.fabric_ops));
  t.set("spice.fabric_op_ms", traced.fabric_usage.dur_ms / fops);
  t.set("spice.fabric_factor_ms", traced.fabric_usage.self("factor") / fops);
  t.set("spice.unknowns", traced.fabric_out.unknowns);
  t.set("spice.pattern_entries",
        static_cast<double>(traced.fabric_out.pattern_entries));
  t.set("spice.sparse", traced.fabric_out.sparse ? 1.0 : 0.0);
  t.set("netlist.elements", static_cast<double>(traced.fabric_out.elements));
  const double elab_ms = traced.fabric_usage.self(kSpanElaborate) / fops;
  t.set("netlist.elaborate_us_per_element",
        traced.fabric_out.elements > 0
            ? 1e3 * elab_ms / static_cast<double>(traced.fabric_out.elements)
            : 0.0);
  r.per_layer = t.metrics();
  return r;
}

}  // namespace perfbench
