/// Experiment P1 (infrastructure): google-benchmark microbenchmarks of
/// the simulation kernels every experiment above runs on -- the sparse
/// LU, DC operating points of STSCL cells, transient steps, AC points,
/// the gate-level event simulator and the netlist front end.

#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <sstream>

#include "adc/ensemble.hpp"
#include "analog/preamp.hpp"
#include "device/mosfet.hpp"
#include "digital/fmax.hpp"
#include "lint/check.hpp"
#include "lint/circuit_view.hpp"
#include "lint/ir.hpp"
#include "lint/op_region.hpp"
#include "netlist/expr.hpp"
#include "netlist/netlist.hpp"
#include "spice/ac.hpp"
#include "spice/elements.hpp"
#include "spice/engine.hpp"
#include "spice/ensemble.hpp"
#include "spice/linear_system.hpp"
#include "spice/transient.hpp"
#include "stscl/fabric.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

using namespace sscl;

namespace {

void report_pipeline_counters(benchmark::State& state,
                              const spice::EngineStats& st) {
  state.counters["device_evals"] = static_cast<double>(st.device_evals);
  state.counters["bypass_hits"] = static_cast<double>(st.bypass_hits);
  state.counters["bypass_rate"] = st.bypass_rate();
  state.counters["full_factors"] = static_cast<double>(st.full_factors);
  state.counters["numeric_refactors"] =
      static_cast<double>(st.numeric_refactors);
}

/// Same construction as stscl::measure_ring_oscillator, exposed here so
/// the bench can own the Engine and read its EngineStats. Returns the
/// rough stage delay used to scale the transient.
double build_ring(spice::Circuit& c, const device::Process& proc,
                  int stages) {
  stscl::SclParams p;
  stscl::SclFabric fab(c, proc, p);
  stscl::DiffSignal first = fab.signal("ring0");
  stscl::DiffSignal s = first;
  stscl::DiffSignal last{};
  for (int i = 0; i < stages; ++i) {
    last = fab.buffer(s, "ring" + std::to_string(i + 1));
    s = last;
  }
  c.add<spice::Resistor>("Rloop_p", last.n, first.p, 1.0);
  c.add<spice::Resistor>("Rloop_n", last.p, first.n, 1.0);
  stscl::SclModel rough;
  rough.vsw = p.vsw;
  rough.cl = 10e-15;
  const double td0 = rough.delay(p.iss);
  c.add<spice::CurrentSource>(
      "Ikick", first.p, first.n,
      spice::SourceSpec::pulse(0.0, 2.0 * p.iss, 0.0, td0 / 20, td0 / 20,
                               2.0 * td0));
  return td0;
}

void BM_SparseLu(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(2);
  spice::LinearSystem sys(n);
  // Tridiagonal + random fill (MNA-like pattern).
  std::vector<spice::MatrixSlot> diag(n), lower(n), upper(n);
  for (int i = 0; i < n; ++i) {
    rng.uniform();  // keeps the random fill of the pattern unchanged
    diag[i] = sys.reserve(i, i);
    if (i > 0) lower[i] = sys.reserve(i, i - 1);
    if (i + 1 < n) upper[i] = sys.reserve(i, i + 1);
    sys.reserve(i, static_cast<int>(rng.bounded(n)));
  }
  sys.finalize_pattern();
  std::vector<double> x;
  for (auto _ : state) {
    sys.clear();
    for (int i = 0; i < n; ++i) {
      sys.add_at(diag[i], 4.0);
      if (i > 0) sys.add_at(lower[i], -1.0);
      if (i + 1 < n) sys.add_at(upper[i], -1.0);
      sys.add_rhs_at(sys.reserve_rhs(i), 1.0);
    }
    sys.solve(x);
    benchmark::DoNotOptimize(x);
  }
  state.counters["lu_nnz"] = static_cast<double>(sys.factor_nonzeros());
}
BENCHMARK(BM_SparseLu)->Arg(64)->Arg(256)->Arg(1024);

void BM_StsclCellOp(benchmark::State& state) {
  const device::Process proc = device::Process::c180();
  spice::Circuit c;
  stscl::SclParams p;
  stscl::SclFabric fab(c, proc, p);
  auto in = fab.signal("in");
  fab.drive_const(in, true);
  auto s = in;
  for (int i = 0; i < 4; ++i) s = fab.buffer(s, "b" + std::to_string(i));
  spice::Engine engine(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.solve_op());
  }
  state.counters["newton_iters"] =
      static_cast<double>(engine.stats().newton_iterations);
}
BENCHMARK(BM_StsclCellOp);

void BM_StsclBufferTransient(benchmark::State& state) {
  const device::Process proc = device::Process::c180();
  for (auto _ : state) {
    spice::Circuit c;
    stscl::SclParams p;
    p.iss = 1e-8;
    stscl::SclFabric fab(c, proc, p);
    auto in = fab.signal("in");
    auto out = fab.buffer(in, "dut");
    (void)out;
    fab.drive_pulse(in, 1e-6, 1e-8, 3e-6);
    spice::Engine engine(c);
    spice::TransientOptions opts;
    opts.tstop = 8e-6;
    benchmark::DoNotOptimize(run_transient(engine, opts));
  }
}
BENCHMARK(BM_StsclBufferTransient);

// ---- pipeline rows (docs/ENGINE.md): op + transient on the STSCL ring
// oscillator and the Fig. 6 preamp, with the engine's counters. On the
// ring transient only the switching wavefront re-evaluates its devices,
// so bypass_hits exceed device_evals.

void BM_StsclRingOp(benchmark::State& state) {
  const device::Process proc = device::Process::c180();
  spice::Circuit c;
  build_ring(c, proc, 5);
  spice::Engine engine(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.solve_op());
  }
  report_pipeline_counters(state, engine.stats());
}
BENCHMARK(BM_StsclRingOp);

void BM_StsclRingTransient(benchmark::State& state) {
  const device::Process proc = device::Process::c180();
  spice::EngineStats last;
  for (auto _ : state) {
    spice::Circuit c;
    const double td0 = build_ring(c, proc, 5);
    spice::Engine engine(c);
    spice::TransientOptions opts;
    opts.tstop = 4.0 * 2 * 5 * td0;  // four rough ring periods
    opts.dt_max = td0 / 3;
    benchmark::DoNotOptimize(run_transient(engine, opts));
    last = engine.stats();
  }
  report_pipeline_counters(state, last);
  state.counters["transient_steps"] = static_cast<double>(last.transient_steps);
}
BENCHMARK(BM_StsclRingTransient)->Unit(benchmark::kMillisecond);

void BM_PreampOp(benchmark::State& state) {
  const device::Process proc = device::Process::c180();
  spice::Circuit c;
  analog::PreampParams pp;
  analog::build_preamp(c, proc, pp);
  spice::Engine engine(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.solve_op());
  }
  report_pipeline_counters(state, engine.stats());
}
BENCHMARK(BM_PreampOp);

void BM_PreampTransient(benchmark::State& state) {
  const device::Process proc = device::Process::c180();
  spice::EngineStats last;
  for (auto _ : state) {
    spice::Circuit c;
    analog::PreampParams pp;
    analog::PreampInstance pre = analog::build_preamp(c, proc, pp);
    // Small differential step on top of the common mode.
    pre.vin_src->set_spec(spice::SourceSpec::pulse(
        pp.v_cm - 0.02, pp.v_cm + 0.02, 2e-6, 1e-8, 1e-8, 4e-6));
    spice::Engine engine(c);
    spice::TransientOptions opts;
    opts.tstop = 8e-6;
    benchmark::DoNotOptimize(run_transient(engine, opts));
    last = engine.stats();
  }
  report_pipeline_counters(state, last);
  state.counters["transient_steps"] = static_cast<double>(last.transient_steps);
}
BENCHMARK(BM_PreampTransient)->Unit(benchmark::kMillisecond);

void BM_EncoderEventSim(benchmark::State& state) {
  digital::Netlist nl;
  digital::EncoderIo io = digital::build_fai_encoder(nl);
  stscl::SclModel timing;
  timing.vsw = 0.2;
  timing.cl = 12e-15;
  const auto stimuli = digital::default_stimuli(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(digital::encoder_works_at(
        nl, io, timing, 1e-9, 10 * timing.delay(1e-9), stimuli));
  }
}
BENCHMARK(BM_EncoderEventSim);

// Serial vs pooled Monte-Carlo: the same 8-instance linearity MC on 1
// thread and on a worker pool (the runner's headline speedup; results
// are bit-identical either way, see docs/RUNNER.md).
void BM_MonteCarloLinearity(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  adc::FaiAdcConfig cfg;
  cfg.input_noise_rms = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        adc::monte_carlo_linearity(cfg, 8, /*seed=*/2026, jobs));
  }
  state.counters["jobs"] = jobs;
}
BENCHMARK(BM_MonteCarloLinearity)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// The Monte-Carlo ensemble engines, single-threaded so
// items_per_second is the per-core sample throughput EXPERIMENTS.md
// quotes (P1).
void BM_AdcMcEngine(benchmark::State& state) {
  // 32 instances x 4096 histogram conversions = 131k ADC samples per MC
  // call: the bench_yield workload at the >=100k-sample scale the
  // committed bench_spice_perf_ensemble.csv quotes.
  const int instances = 32;
  adc::FaiAdcConfig cfg;
  cfg.input_noise_rms = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        adc::monte_carlo_linearity(cfg, instances, /*seed=*/2026, /*jobs=*/1));
  }
  state.SetItemsProcessed(state.iterations() * instances);
}
BENCHMARK(BM_AdcMcEngine)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Circuit-level ensemble: DC operating points of a subthreshold NMOS
// mirror across mismatch samples on the batched lockstep path.
void BM_SpiceEnsembleOp(benchmark::State& state) {
  spice::Topology topo([]() {
    auto c = std::make_unique<spice::Circuit>();
    const device::Process proc = device::Process::c180();
    const spice::NodeId g = c->node("g");
    const spice::NodeId d2 = c->node("d2");
    const spice::NodeId vdd = c->node("vdd");
    c->add<spice::VoltageSource>("Vdd", vdd, spice::kGround,
                                 spice::SourceSpec::dc(1.2));
    c->add<spice::CurrentSource>("Iref", vdd, g, spice::SourceSpec::dc(1e-9));
    const device::MosGeometry geo{2e-6, 1e-6, 0, 0};
    c->add<device::Mosfet>("M1", g, g, spice::kGround, spice::kGround,
                           proc.nmos, geo);
    c->add<device::Mosfet>("M2", d2, g, spice::kGround, spice::kGround,
                           proc.nmos, geo);
    c->add<spice::Resistor>("RL", vdd, d2, 2e8);
    return c;
  });
  const spice::NodeId out = topo.circuit().find_node("d2").value();
  spice::EnsembleEngine engine(topo);
  const std::uint64_t samples = 256;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(
        samples, /*seed=*/7, [out](std::uint64_t, const spice::Solution& op) {
          return std::vector<double>{op.v(out)};
        }));
  }
  state.SetItemsProcessed(state.iterations() * samples);
}
BENCHMARK(BM_SpiceEnsembleOp)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// The netlist front end on serve_bench.sp: 584 subckt instances expand
// to 2,050 elements with 2,635 expression evaluations.
std::string serve_bench_text() {
  std::ifstream in(std::string(SSCL_EXAMPLE_DECK_DIR) + "/serve_bench.sp");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void BM_ElaborateServeBench(benchmark::State& state) {
  const std::string text = serve_bench_text();
  std::size_t elements = 0;
  std::chrono::duration<double, std::micro> spent{0};
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const netlist::Deck deck = netlist::parse_netlist(text);
    spent += std::chrono::steady_clock::now() - start;
    elements = deck.circuit->devices().size();
    benchmark::DoNotOptimize(elements);
  }
  state.counters["elements"] = static_cast<double>(elements);
  state.counters["us_per_element"] =
      spent.count() / static_cast<double>(state.iterations() * elements);
}
BENCHMARK(BM_ElaborateServeBench)->Unit(benchmark::kMillisecond);

// The ERC gate every Engine construction runs (lint::enforce_circuit:
// the structural rules, op-region off) on serve_bench.sp's 2,050
// elements.
void BM_LintGateServeBench(benchmark::State& state) {
  const netlist::Deck deck = netlist::parse_netlist(serve_bench_text());
  std::chrono::duration<double, std::micro> spent{0};
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    lint::enforce_circuit(*deck.circuit);
    spent += std::chrono::steady_clock::now() - start;
  }
  const double elements = static_cast<double>(deck.circuit->devices().size());
  state.counters["us_per_element"] =
      spent.count() / (static_cast<double>(state.iterations()) * elements);
}
BENCHMARK(BM_LintGateServeBench)->Unit(benchmark::kMillisecond);

// An STSCL tap-buffer fabric of \p gates buffers on one shared bias
// generator, the shape of perfbench's tran_stscl fabric: gate k taps the
// outputs of gate (k - 1) / 2.
std::string fabric_deck(int gates) {
  std::string d =
      "* stscl tap-buffer fabric\n"
      "Vdd vdd 0 1\n"
      "Ib vdd vbn 10n\n"
      "Mb vbn vbn 0 0 nmos_hvt W=2u L=1u\n"
      "Mrt vbp vbn 0 0 nmos_hvt W=2u L=1u\n"
      "Mrd vbp vbp vdd vdd pmos W=3u L=1.2u\n"
      ".subckt sclbuf inp inn outp outn vbn vbp vdd\n"
      "M1 outn inp tail 0 nmos W=2u L=0.5u\n"
      "M2 outp inn tail 0 nmos W=2u L=0.5u\n"
      "Mt tail vbn 0 0 nmos_hvt W=2u L=1u\n"
      "Ml1 outp vbp vdd outp pmos W=0.3u L=1.2u\n"
      "Ml2 outn vbp vdd outn pmos W=0.3u L=1.2u\n"
      "Cp outp 0 1f\n"
      "Cn outn 0 1f\n"
      ".ends\n"
      "Vip inp 0 DC 0.76\n"
      "Vin inn 0 DC 1\n";
  for (int k = 0; k < gates; ++k) {
    const std::string in =
        k == 0 ? "inp inn"
               : "n" + std::to_string((k - 1) / 2) + "p n" +
                     std::to_string((k - 1) / 2) + "n";
    const std::string out = "n" + std::to_string(k);
    d += "X" + std::to_string(k) + " " + in + " " + out + "p " + out +
         "n vbn vbp vdd sclbuf\n";
  }
  return d + ".end\n";
}

// The op-region interval analysis (nominal box) of the fabric; the view
// and IR are built once. us_per_device is the analysis time over every
// device of the circuit.
void BM_OpRegionFabric(benchmark::State& state) {
  const netlist::Deck deck =
      netlist::parse_netlist(fabric_deck(static_cast<int>(state.range(0))));
  const lint::CircuitView view(*deck.circuit);
  const lint::AnalysisIR ir = lint::AnalysisIR::build(view);
  lint::OpRegionStats stats;
  std::chrono::duration<double, std::micro> spent{0};
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const lint::OpRegionResult r =
        lint::analyze_op_region(view, ir, lint::OpRegionOptions{});
    spent += std::chrono::steady_clock::now() - start;
    stats = r.stats;
    benchmark::DoNotOptimize(r.node_v.data());
  }
  const double devices = static_cast<double>(deck.circuit->devices().size());
  state.counters["devices"] = devices;
  state.counters["us_per_device"] =
      spent.count() / (static_cast<double>(state.iterations()) * devices);
  state.counters["ekv_f_evals"] = static_cast<double>(stats.ekv_f_evals);
  state.counters["kcl_steps"] = static_cast<double>(stats.kcl_steps);
}
BENCHMARK(BM_OpRegionFabric)->Arg(50)->Arg(400)->Unit(benchmark::kMillisecond);

// serve_bench.sp (1,026 unknowns) under `.ac dec 10 1k 10k`: its op plus
// eleven AC points per iteration. run_ac solves the op first, so one
// separately timed op is subtracted from each AC run. lu_nnz is the fill
// of the complex factors.
void BM_AcServeBench(benchmark::State& state) {
  netlist::Deck deck = netlist::parse_netlist(serve_bench_text());
  spice::Engine engine(*deck.circuit);
  const std::vector<double> freqs = util::logspace(1e3, 1e4, 11);
  std::chrono::duration<double, std::micro> ac{0}, op{0};
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(spice::run_ac(engine, freqs));
    const auto mid = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(engine.solve_op());
    ac += mid - start;
    op += std::chrono::steady_clock::now() - mid;
  }
  state.counters["us_per_point"] =
      (ac - op).count() /
      static_cast<double>(state.iterations() * freqs.size());
  spice::ComplexSystem system(engine.linear_system());
  spice::factor_ac_system(engine, system, freqs.front());
  state.counters["lu_nnz"] = static_cast<double>(system.factor_nonzeros());
}
BENCHMARK(BM_AcServeBench)->Unit(benchmark::kMillisecond);

// serve_bench.sp's four seg expressions in a seg instance's scope. Arm 0
// compiles and runs each text, the way a top-level card is read once;
// arm 1 runs code compiled before the loop, the way each instance of a
// subckt body reruns its tokens.
void BM_ExprEval(benchmark::State& state) {
  netlist::ParamEnv globals;
  globals.set("rbase", 1e3);
  globals.set("rstep", 1e3 / 3 + 17);
  netlist::ParamEnv seg(&globals);
  seg.set("r", 1.01e3);
  const std::string texts[] = {
      "r*1.25 + rbase/64 + sqrt(r)*0.01",
      "r*2 + rbase/100 + rstep/8",
      "max(r*4, rbase) + exp(min(r, 2k)/1k)",
      "r*8 + log10(max(r, 10))*7 + pow(r/1k, 2)",
  };
  if (state.range(0) == 0) {
    for (auto _ : state) {
      for (const std::string& text : texts) {
        benchmark::DoNotOptimize(netlist::eval_expr(text, seg));
      }
    }
  } else {
    const netlist::CompiledExpr code[] = {
        netlist::CompiledExpr(texts[0]), netlist::CompiledExpr(texts[1]),
        netlist::CompiledExpr(texts[2]), netlist::CompiledExpr(texts[3])};
    for (auto _ : state) {
      for (const netlist::CompiledExpr& expr : code) {
        benchmark::DoNotOptimize(expr.eval(seg));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_ExprEval)->ArgName("cached")->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
