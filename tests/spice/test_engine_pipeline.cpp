/// \file test_engine_pipeline.cpp
/// Tests for the phased evaluation pipeline: the default engine held to
/// the goldens of the removed dense LU and the removed bypass-off and
/// knobs-off engine modes, the frozen MNA pattern, numeric
/// refactorisation, EngineStats accounting and the solver failure paths
/// (gmin -> source stepping fall-through, pathological-op ConvergenceError,
/// transient timestep underflow).

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "spice/elements.hpp"
#include "spice/engine.hpp"
#include "spice/transient.hpp"
#include "stscl/fabric.hpp"

namespace sscl::spice {
namespace {

const device::Process kProc = device::Process::c180();

/// Build an STSCL buffer chain driven by a constant input; returns the
/// final output signal. The bias generators make this a stiff nonlinear
/// op (feedback opamps + subthreshold MOS), a good pipeline stressor.
stscl::DiffSignal build_buffer_chain(Circuit& c, int stages = 2) {
  stscl::SclParams p;
  stscl::SclFabric fab(c, kProc, p);
  stscl::DiffSignal in = fab.signal("in");
  fab.drive_const(in, true);
  stscl::DiffSignal s = in;
  for (int i = 0; i < stages; ++i) {
    s = fab.buffer(s, "buf" + std::to_string(i));
  }
  return s;
}

/// Rows of a two-column golden CSV in tests/spice/golden/ (header
/// skipped): the first column as text, the second as a double.
std::vector<std::pair<std::string, double>> read_golden(
    const std::string& name) {
  std::ifstream in(std::string(SSCL_SPICE_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::vector<std::pair<std::string, double>> rows;
  std::string line;
  std::getline(in, line);
  while (std::getline(in, line)) {
    const std::size_t comma = line.find(',');
    rows.emplace_back(line.substr(0, comma), std::stod(line.substr(comma + 1)));
  }
  return rows;
}

/// Max |v - golden| over the node,v rows of a golden op file.
double max_delta_to_golden(const Circuit& c, const Solution& op,
                           const std::string& golden) {
  const auto rows = read_golden(golden);
  EXPECT_EQ(static_cast<int>(rows.size()), op.node_count());
  double worst = 0.0;
  for (const auto& [node, v] : rows) {
    const std::optional<NodeId> id = c.find_node(node);
    EXPECT_TRUE(id.has_value()) << "golden node " << node << " not found";
    if (id) worst = std::max(worst, std::fabs(op.v(*id) - v));
  }
  return worst;
}

// ---- the default engine vs the goldens of the removed engine modes ---
// tests/spice/golden/ holds, with %.17g, the buffer-chain op of the
// legacy knobs-off engine (no bypass, clear-and-restamp assembly, no
// pivot reuse), the same op with only bypass off plus that run's
// device_evals, the bypass-off samples of a two-buffer transient, and
// the op of the removed dense LU, which solved this 18-unknown chain.

TEST(EngineGolden, OpMatchesDenseLu) {
  Circuit c;
  build_buffer_chain(c);
  Engine engine(c);
  const Solution op = engine.solve_op();
  EXPECT_LT(max_delta_to_golden(c, op, "buffer_chain_op_dense.csv"),
            engine.options().vntol)
      << "the sparse LU's op drifted away from the dense LU's";
}

TEST(EngineGolden, OpMatchesKnobsOffEngine) {
  Circuit c;
  build_buffer_chain(c);
  Engine engine(c);
  const Solution op = engine.solve_op();
  EXPECT_LT(max_delta_to_golden(c, op, "buffer_chain_op_knobs_off.csv"),
            engine.options().vntol * 10)
      << "phased pipeline drifted away from the legacy engine";
}

TEST(EngineGolden, BypassOpMatchesBypassOffEngine) {
  Circuit c;
  build_buffer_chain(c);
  Engine engine(c);
  const Solution op = engine.solve_op();

  // Bypass may settle on a point within the Newton tolerance band.
  EXPECT_LT(max_delta_to_golden(c, op, "buffer_chain_op_bypass_off.csv"),
            engine.options().vntol * 10);
  EXPECT_GT(engine.stats().bypass_hits, 0)
      << "bypass enabled but no device ever reused its cache";
  const auto golden = read_golden("buffer_chain_op_bypass_off_stats.csv");
  ASSERT_EQ(golden.size(), 1u);
  ASSERT_EQ(golden[0].first, "device_evals");
  EXPECT_LT(static_cast<double>(engine.stats().device_evals), golden[0].second)
      << "bypass did not reduce full model evaluations";
}

TEST(EngineGolden, BypassTransientMatchesBypassOffEngine) {
  Circuit c;
  stscl::SclParams p;
  stscl::SclFabric fab(c, kProc, p);
  stscl::DiffSignal in = fab.signal("in");
  const stscl::SclModel model;
  const double td = model.delay(p.iss);
  fab.drive_pulse(in, 4 * td, td / 4, 40 * td);
  stscl::DiffSignal out = fab.buffer(fab.buffer(in, "b0"), "b1");

  Engine engine(c);
  TransientOptions to;
  to.tstop = 12 * td;
  to.dt_max = td / 3;
  const Waveform w = run_transient(engine, to);

  // The golden samples the differential output on a fixed 61-point
  // grid. The step controller may pick slightly different time grids
  // once voltages differ at the Newton-tolerance level; allow a small
  // multiple of the swing-relative tolerance at interpolated samples.
  const auto golden = read_golden("buffer_chain_tran_bypass_off.csv");
  ASSERT_EQ(golden.size(), 61u);
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const double t = std::stod(golden[i].first);
    EXPECT_NEAR(w.at(out.p, t) - w.at(out.n, t), golden[i].second, 2e-3)
        << "sample " << i;
  }
  EXPECT_GT(engine.stats().bypass_hits, 0);
  EXPECT_GT(engine.stats().transient_steps, 0);
}

// ---- frozen MNA pattern ----------------------------------------------

TEST(FrozenPattern, ReserveAfterFinalizeLooksUpOrThrows) {
  LinearSystem sys(3);
  const MatrixSlot s01 = sys.reserve(0, 1);
  const MatrixSlot s22 = sys.reserve(2, 2);
  sys.finalize_pattern();
  const std::size_t entries = sys.pattern_entries();

  // An entry already in the pattern returns its slot.
  EXPECT_EQ(sys.reserve(0, 1), s01);
  EXPECT_EQ(sys.reserve(2, 2), s22);

  // A new entry is refused by name and the pattern stays as it was.
  try {
    sys.reserve(1, 0);
    FAIL() << "reserve() of a new entry after finalize_pattern()";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("(1, 0)"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sys.pattern_entries(), entries);

  // The slot table still addresses the reserved entries: A x equals
  // b = (2, 0, 3) exactly at x = (0, 1, 1).
  sys.add_at(s01, 2.0);
  sys.add_at(s22, 3.0);
  sys.add_rhs_at(sys.reserve_rhs(0), 2.0);
  sys.add_rhs_at(sys.reserve_rhs(2), 3.0);
  EXPECT_EQ(sys.residual_norm({0.0, 1.0, 1.0}), 0.0);
  EXPECT_EQ(sys.residual_norm({0.0, 0.0, 0.0}), 3.0);
}

// ---- numeric refactorisation and stats accounting --------------------

TEST(EnginePipeline, NumericRefactorisationUsed) {
  Circuit c;
  build_buffer_chain(c);
  Engine engine(c);
  engine.solve_op();

  const EngineStats& st = engine.stats();
  EXPECT_GT(st.factors, 0);
  EXPECT_GT(st.full_factors, 0);  // at least the first factorisation
  EXPECT_GT(st.numeric_refactors, 0)
      << "pivot-reuse path never engaged on a multi-iteration op";
  EXPECT_EQ(st.factors, st.full_factors + st.numeric_refactors);
}

TEST(EnginePipeline, StatsCountersAccumulate) {
  Circuit c;
  build_buffer_chain(c);
  Engine engine(c);
  engine.solve_op();

  const EngineStats& st = engine.stats();
  EXPECT_EQ(st.op_solves, 1);
  EXPECT_GT(st.newton_iterations, 0);
  EXPECT_GT(st.assemblies, 0);
  EXPECT_GT(st.baseline_builds, 0);
  EXPECT_GT(st.static_loads, 0);
  EXPECT_GT(st.device_loads, 0);
  EXPECT_GT(st.device_evals, 0);
  EXPECT_GE(st.bypass_rate(), 0.0);
  EXPECT_LE(st.bypass_rate(), 1.0);
  EXPECT_GE(st.seconds_assemble, 0.0);
  EXPECT_GE(st.seconds_solve, 0.0);

  engine.stats().reset();
  EXPECT_EQ(engine.stats().newton_iterations, 0);
  EXPECT_EQ(engine.stats().op_solves, 0);
}

// ---- S3: failure paths -----------------------------------------------

TEST(EnginePipeline, PathologicalOpThrowsConvergenceError) {
  // 1 A forced into a node whose only DC path is gmin: the solution
  // (10^15 V) is unreachable under max_step_v damping.
  Circuit c;
  const NodeId n1 = c.node("n1");
  c.add<CurrentSource>("i1", kGround, n1, SourceSpec::dc(1.0));
  c.add<Capacitor>("c1", n1, kGround, 1e-12);
  SolverOptions so;
  so.lint = false;  // the ERC would reject this net before solving
  Engine engine(c, so);
  EXPECT_THROW(engine.solve_op(), ConvergenceError);
  EXPECT_GT(engine.stats().op_gmin_steps, 0);
  EXPECT_GT(engine.stats().op_source_steps, 0);
}

/// Refuses to converge (reports limiting forever) until it has seen a
/// source-stepping iteration, i.e. source_scale < 1. Electrically it is
/// just a resistor to ground.
class FlakyDevice final : public Device {
 public:
  FlakyDevice(std::string name, NodeId a) : Device(std::move(name)), a_(a) {}
  void reserve(PatternContext& ctx) override {
    gp_ = ctx.conductance(a_, kGround);
  }
  void load(LoadContext& ctx) override {
    ctx.stamp_conductance(gp_, 1e-3);
    if (ctx.source_scale() < 1.0) unlocked_ = true;
    if (!unlocked_) ctx.set_not_converged();
  }

 private:
  NodeId a_;
  ConductancePattern gp_;
  bool unlocked_ = false;
};

TEST(EnginePipeline, SourceSteppingFallThrough) {
  Circuit c;
  const NodeId n1 = c.node("n1");
  c.add<VoltageSource>("v1", n1, kGround, SourceSpec::dc(1.0));
  c.add<FlakyDevice>("flaky", n1);
  SolverOptions so;
  so.lint = false;
  so.max_iterations = 25;  // fail the doomed strategies quickly
  Engine engine(c, so);
  const Solution op = engine.solve_op();
  EXPECT_NEAR(op.v(n1), 1.0, 1e-9);
  // Plain Newton and gmin stepping must both have failed before source
  // stepping unlocked the device.
  EXPECT_GT(engine.stats().op_gmin_steps, 0);
  EXPECT_GT(engine.stats().op_source_steps, 0);
}

/// Stamps a clean 1 kOhm to ground at DC but poisons the rhs with NaN
/// for any transient step, so every timestep's Newton solve fails.
class NanAfterZeroDevice final : public Device {
 public:
  NanAfterZeroDevice(std::string name, NodeId a)
      : Device(std::move(name)), a_(a) {}
  void reserve(PatternContext& ctx) override {
    gp_ = ctx.conductance(a_, kGround);
    rp_ = ctx.current_source(a_, kGround);
  }
  void load(LoadContext& ctx) override {
    ctx.stamp_conductance(gp_, 1e-3);
    if (ctx.mode() == AnalysisMode::kTransient && ctx.time() > 0.0) {
      ctx.stamp_current_source(rp_, std::nan(""));
    }
  }

 private:
  NodeId a_;
  ConductancePattern gp_;
  CurrentPattern rp_;
};

TEST(EnginePipeline, TransientNonFiniteStampThrowsNamingDevice) {
  // The stamp guard fires on the first poisoned solve and names the
  // device — no timestep-halving retries, which could never heal a
  // NaN stamp and used to bury the root cause under an underflow.
  Circuit c;
  const NodeId n1 = c.node("n1");
  c.add<VoltageSource>("v1", n1, kGround, SourceSpec::dc(1.0));
  c.add<NanAfterZeroDevice>("nan", n1);
  SolverOptions so;
  so.lint = false;
  Engine engine(c, so);
  TransientOptions to;
  to.tstop = 1e-6;
  try {
    run_transient(engine, to);
    FAIL() << "expected ConvergenceError naming the poisoned device";
  } catch (const ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("nan"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(engine.stats().transient_steps, 0);
}

}  // namespace
}  // namespace sscl::spice
