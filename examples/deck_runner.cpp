/// deck_runner: a miniature command-line SPICE built from this
/// library's pieces. Reads a deck file (or a built-in demo deck when no
/// file is given) through the staged netlist front-end (lexer -> AST ->
/// .param expression evaluation -> hierarchical elaboration), runs every
/// analysis card it contains through netlist::run_deck and prints the
/// results — operating-point report, DC sweep table, transient
/// measurements, AC gain/bandwidth, .measure results.
///
///   build/examples/deck_runner [--stats] [--trace FILE] [--metrics FILE]
///                              [--mc N] [--mc-seed S] [--mc-csv FILE]
///                              [--jobs J] [--strict] [--max-depth N]
///                              [--measure-csv FILE] [deck.sp] [node ...]
///
/// Extra arguments name the nodes to report (default: all). With
/// --stats, a pipeline report (front-end elements and expression
/// evaluations, Newton iterations, device evaluations vs bypass hits,
/// factorisation mix, the wall time of each analysis card, LU fill) is
/// printed after the analyses. A card's time runs from its start to the
/// next card's (its printed report included), read once per card here;
/// the engine reads no clock. --trace writes a Chrome trace-event /
/// Perfetto JSON timeline of the run (newton, baseline, assemble,
/// factor, timestep spans: the split of a card's time into phases);
/// --metrics writes the flat counter/gauge registry as JSON (or CSV for
/// a .csv path). See docs/OBSERVABILITY.md.
///
/// Unknown dot-cards are accepted with a warning on stderr; --strict
/// turns them into hard errors. --max-depth bounds .subckt nesting
/// (default 64); exceeding it reports the full instantiation chain.
/// .include paths resolve relative to the deck file's directory.
///
/// .measure cards evaluate against the deck's transient/DC results and
/// print as a table; --measure-csv additionally writes them as a
/// deterministic name,value,error CSV (%.17g, byte-stable across runs)
/// for golden-file regression gates. See docs/NETLIST.md.
///
/// --mc N replaces the deck's analysis cards with a Monte-Carlo DC
/// operating-point ensemble: N mismatch samples of the deck's MOSFETs
/// solved by spice::EnsembleEngine, with one CSV row per sample
/// (sample, v(node)...) written to --mc-csv (default stdout). Sample s
/// draws from Rng(S).fork(s), so the CSV is byte-identical at any
/// --jobs count (docs/RUNNER.md, "Monte-Carlo ensembles").
///
/// Numeric flag values must be non-negative decimal integers; a bad or
/// missing value is a usage error (exit status 2).

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "cli_flags.hpp"
#include "device/op_report.hpp"
#include "netlist/netlist.hpp"
#include "netlist/run.hpp"
#include "spice/engine.hpp"
#include "spice/ensemble.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

const char* kDemoDeck = R"(demo: STSCL-style current mirror with RC load
Vdd vdd 0 1.2
Ib vdd vbn 1n
MB vbn vbn 0 0 nmos_hvt W=2u L=1u
MT out vbn 0 0 nmos_hvt W=2u L=1u
RL vdd out 100meg
CL out 0 100f
Vac probe 0 DC 0 AC 1
Rprobe probe 0 1meg
.op
.tran 50u
.end
)";

/// The dot-card name of \p card; nullptr stands for the .measure cards.
const char* card_name(const sscl::netlist::AnalysisCard* card) {
  using Kind = sscl::netlist::AnalysisCard::Kind;
  if (card == nullptr) return ".measure";
  switch (card->kind) {
    case Kind::kOp:
      return ".op";
    case Kind::kDc:
      return ".dc";
    case Kind::kTran:
      return ".tran";
    case Kind::kAc:
      return ".ac";
  }
  return "?";
}

int usage(std::ostream& os, int code) {
  os << "usage: deck_runner [options] [deck.sp] [node ...]\n"
        "  (no deck: runs the built-in demo; extra arguments name the\n"
        "  nodes to report, default all)\n"
        "  --stats                engine-pipeline report after the "
        "analyses\n"
        "  --strict               reject unknown dot-cards instead of\n"
        "                         accept-and-warn\n"
        "  --max-depth N          .subckt nesting limit (default 64)\n"
        "  --measure-csv FILE     write .measure results as a\n"
        "                         deterministic name,value,error CSV\n"
        "  --trace FILE           write a Chrome trace-event JSON\n"
        "  --metrics FILE         write the counter registry as JSON (or\n"
        "                         CSV for a .csv path)\n"
        "  --mc N                 Monte-Carlo DC ensemble with N mismatch\n"
        "                         samples instead of the deck's analyses\n"
        "  --mc-seed S            ensemble seed (default 1)\n"
        "  --mc-csv FILE          ensemble CSV destination (default "
        "stdout)\n"
        "  --jobs J               ensemble worker threads\n";
  return code;
}

void warn(const std::string& message) {
  std::fprintf(stderr, "warning: %s\n", message.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sscl;

  std::string text;
  std::vector<std::string> wanted_nodes;
  bool want_stats = false;
  bool strict = false;
  int max_depth = 64;
  std::string trace_path, metrics_path, measure_csv;
  std::uint64_t mc_samples = 0;
  std::uint64_t mc_seed = 1;
  std::string mc_csv;
  int jobs = 1;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size();) {
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "deck_runner: missing value for %s\n", flag);
        std::exit(2);
      }
      return args[i + 1];
    };
    auto count = [&](const char* flag, std::uint64_t max) {
      return cli::parse_count("deck_runner", value(flag), flag, max);
    };
    auto erase = [&](std::size_t n) {
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i + n));
    };
    if (args[i] == "--help" || args[i] == "-h") {
      return usage(std::cout, 0);
    } else if (args[i] == "--stats") {
      want_stats = true;
      erase(1);
    } else if (args[i] == "--strict") {
      strict = true;
      erase(1);
    } else if (args[i] == "--max-depth") {
      max_depth = static_cast<int>(count("--max-depth", INT_MAX));
      erase(2);
    } else if (args[i] == "--measure-csv") {
      measure_csv = value("--measure-csv");
      erase(2);
    } else if (args[i] == "--trace") {
      trace_path = value("--trace");
      erase(2);
    } else if (args[i] == "--metrics") {
      metrics_path = value("--metrics");
      erase(2);
    } else if (args[i] == "--mc") {
      mc_samples = count("--mc", UINT64_MAX);
      erase(2);
    } else if (args[i] == "--mc-seed") {
      mc_seed = count("--mc-seed", UINT64_MAX);
      erase(2);
    } else if (args[i] == "--mc-csv") {
      mc_csv = value("--mc-csv");
      erase(2);
    } else if (args[i] == "--jobs") {
      jobs = static_cast<int>(count("--jobs", INT_MAX));
      erase(2);
    } else {
      ++i;
    }
  }
  if (!trace_path.empty() || !metrics_path.empty()) {
    sscl::trace::enable();
    sscl::trace::set_thread_name("main");
    sscl::trace::write_at_exit(trace_path, metrics_path);
  }

  netlist::ParseOptions parse_options;
  parse_options.strict = strict;
  parse_options.max_subckt_depth = max_depth;
  if (!args.empty()) {
    const std::string& path = args.front();
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
    wanted_nodes.assign(args.begin() + 1, args.end());
    parse_options.name = path;
    const auto slash = path.find_last_of('/');
    parse_options.include_loader = netlist::file_include_loader(
        slash == std::string::npos ? "." : path.substr(0, slash));
  } else {
    std::printf("(no deck given: running the built-in demo)\n");
    text = kDemoDeck;
  }

  try {
    netlist::Deck deck = netlist::parse_netlist(text, parse_options);
    for (const auto& w : deck.warnings) warn(w.location + ": " + w.message);
    std::printf("* %s\n", deck.title.c_str());

    if (mc_samples > 0) {
      // Monte-Carlo ensemble over the deck: the builder re-parses the
      // deck text, which yields identical replicas (same node numbering,
      // same device order), the purity the Topology contract requires.
      spice::Topology topo([text, parse_options]() {
        return std::move(netlist::parse_netlist(text, parse_options).circuit);
      });
      const auto nodes =
          netlist::pick_nodes(topo.circuit(), wanted_nodes, warn);
      spice::EnsembleOptions mc_opts;
      mc_opts.jobs = jobs;
      spice::EnsembleEngine mc(topo, mc_opts);
      const auto rows = mc.run(
          mc_samples, mc_seed,
          [&nodes](std::uint64_t, const spice::Solution& op) {
            std::vector<double> r;
            r.reserve(nodes.size());
            for (auto n : nodes) r.push_back(op.v(n));
            return r;
          });

      std::ofstream csv_file;
      std::ostream* csv = &std::cout;
      if (!mc_csv.empty()) {
        csv_file.open(mc_csv);
        if (!csv_file) {
          std::fprintf(stderr, "cannot write %s\n", mc_csv.c_str());
          return 1;
        }
        csv = &csv_file;
      }
      *csv << "sample";
      for (auto n : nodes) *csv << ",v(" << topo.circuit().node_name(n) << ")";
      *csv << "\n";
      for (std::size_t s = 0; s < rows.size(); ++s) {
        *csv << s;
        for (double v : rows[s]) {
          // Round-trippable form: byte-stable across job counts.
          *csv << ',' << util::format_g17(v);
        }
        *csv << "\n";
      }

      const spice::EnsembleStats& st = mc.stats();
      std::printf(".mc %llu samples (seed %llu, ensemble engine, %d jobs)\n",
                  static_cast<unsigned long long>(mc_samples),
                  static_cast<unsigned long long>(mc_seed), jobs);
      std::printf("  solved              %lld batched + %lld fallback\n",
                  st.batched_samples, st.fallback_samples);
      std::printf("  lockstep            %lld lane-iterations, %lld SoA batches\n",
                  st.newton_iterations, st.soa_batches);
      std::printf("  factorisations      %lld adoptions, %lld numeric-only, "
                  "%lld full (%.1f%% replayed)\n",
                  st.factor_adoptions, st.numeric_refactors, st.full_factors,
                  100.0 * st.adoption_hit_rate());
      std::printf("  throughput          %.3f s, %.0f samples/s\n", st.seconds,
                  st.samples_per_second());
      return 0;
    }

    spice::Engine engine(*deck.circuit);
    const auto nodes = netlist::pick_nodes(*deck.circuit, wanted_nodes, warn);
    netlist::seed_nodesets(deck, engine, warn);

    netlist::DeckHooks hooks;
    hooks.warn = warn;
    hooks.op = [&](const spice::Solution& op) {
      device::print_op_report(device::collect_op_report(*deck.circuit, op),
                              std::cout);
    };
    hooks.dc = [&](const netlist::AnalysisCard& card,
                   const spice::DcSweepResult& dc) {
      std::vector<std::string> headers = {card.sweep_source};
      for (auto n : nodes) {
        headers.push_back("v(" + deck.circuit->node_name(n) + ")");
      }
      util::Table t(headers);
      for (std::size_t i = 0; i < dc.values.size(); ++i) {
        t.row().add(dc.values[i], 4);
        for (auto n : nodes) t.add_unit(dc.solutions[i].v(n), "V");
      }
      std::cout << t;
    };
    hooks.tran = [&](const netlist::AnalysisCard& card,
                     const spice::Waveform& w) {
      util::Table t({"node", "t=0", "min", "max", "final"});
      for (auto n : nodes) {
        t.row()
            .add(deck.circuit->node_name(n))
            .add_unit(w.value(n, 0), "V")
            .add_unit(w.minimum(n), "V")
            .add_unit(w.maximum(n), "V")
            .add_unit(w.final_value(n), "V");
      }
      std::cout << ".tran " << util::format_si(card.tstop, "s", 3) << " ("
                << w.size() << " points)\n"
                << t;
    };
    hooks.ac = [&](const netlist::AnalysisCard& card,
                   const spice::AcResult& ac) {
      util::Table t({"node", "|H| @fstart", "f(-3dB)"});
      for (auto n : nodes) {
        t.row()
            .add(deck.circuit->node_name(n))
            .add(ac.low_frequency_gain(n), 4)
            .add_unit(ac.bandwidth_3db(n), "Hz");
      }
      std::cout << ".ac " << util::format_si(card.f_start, "Hz", 3) << " .. "
                << util::format_si(card.f_stop, "Hz", 3) << "\n"
                << t;
    };
    std::vector<netlist::MeasureResult> measured;
    hooks.measures = [&](const std::vector<netlist::MeasureResult>& results) {
      util::Table t({"measure", "value"});
      for (const auto& r : results) {
        t.row().add(r.name);
        if (r.value) {
          t.add(*r.value, 6);
        } else {
          t.add("failed: " + r.error);
        }
      }
      std::cout << ".measure results\n" << t;
      measured = results;
    };
    // --stats: one clock read as each card begins and one after the run.
    using Clock = std::chrono::steady_clock;
    std::vector<std::pair<const char*, Clock::time_point>> card_starts;
    if (want_stats) {
      hooks.begin = [&](const netlist::AnalysisCard* card) {
        card_starts.emplace_back(card_name(card), Clock::now());
      };
    }
    netlist::run_deck(deck, engine, hooks);
    const Clock::time_point run_end =
        want_stats ? Clock::now() : Clock::time_point{};

    if (!measure_csv.empty() && !deck.measures.empty()) {
      std::ofstream out(measure_csv);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", measure_csv.c_str());
        return 1;
      }
      out << netlist::measures_to_csv(measured);
    }

    if (want_stats) {
      const spice::EngineStats& st = engine.stats();
      std::printf("\nengine pipeline stats\n");
      const netlist::FrontEndStats& fe = deck.front_end;
      std::printf("  front end           %zu elements, %zu expression "
                  "evaluations of %zu compiled expressions\n",
                  fe.elements, fe.expression_evaluations,
                  fe.compiled_expressions);
      std::printf("  newton iterations   %lld (%lld assemblies, %lld baselines)\n",
                  st.newton_iterations, st.assemblies, st.baseline_builds);
      std::printf("  device loads        %lld dynamic + %lld static\n",
                  st.device_loads, st.static_loads);
      std::printf("  model evaluations   %lld full, %lld bypassed (%.1f%% bypass)\n",
                  st.device_evals, st.bypass_hits, 100.0 * st.bypass_rate());
      std::printf("  factorisations      %lld full, %lld numeric-only (%.1f%% reused)"
                  ", %lld singular\n",
                  st.full_factors, st.numeric_refactors,
                  100.0 * st.numeric_refactor_share(), st.singular_factors);
      std::printf("  continuation        %lld gmin steps, %lld source steps\n",
                  st.op_gmin_steps, st.op_source_steps);
      std::printf("  analyses            %lld op, %lld tran steps "
                  "(%lld LTE / %lld Newton rejects), %lld sweep, %lld ac\n",
                  st.op_solves, st.transient_steps, st.transient_rejects_lte,
                  st.transient_rejects_newton, st.sweep_points, st.ac_points);
      std::string card_times;
      for (std::size_t i = 0; i < card_starts.size(); ++i) {
        const Clock::time_point end =
            i + 1 < card_starts.size() ? card_starts[i + 1].second : run_end;
        char item[64];
        std::snprintf(
            item, sizeof item, "%s%s %.3f ms", i == 0 ? "" : ", ",
            card_starts[i].first,
            std::chrono::duration<double, std::milli>(
                end - card_starts[i].second)
                .count());
        card_times += item;
      }
      if (card_times.empty()) card_times = "no analysis cards";
      std::printf("  card time           %s\n", card_times.c_str());
      const spice::LinearSystem& sys = engine.linear_system();
      std::printf("  LU fill             %zu nonzeros in L+U for %zu pattern "
                  "entries (%d unknowns)\n",
                  sys.factor_nonzeros(), sys.pattern_entries(),
                  engine.unknown_count());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
