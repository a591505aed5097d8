// The assembled-stamp non-finite guard: a device that writes NaN/inf
// into the MNA matrix or RHS must be named in the ConvergenceError
// instead of surfacing as an anonymous singular factorisation or a
// "did not converge" after gmin/source stepping grinds through a
// poisoned system.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/device.hpp"
#include "spice/elements.hpp"
#include "spice/engine.hpp"

namespace sscl::spice {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Two-terminal test device that stamps a chosen (possibly non-finite)
/// conductance and current between its nodes.
class PoisonDevice final : public Device {
 public:
  PoisonDevice(std::string name, NodeId a, NodeId b, double g, double i)
      : Device(std::move(name)), a_(a), b_(b), g_(g), i_(i) {}

  void reserve(PatternContext& ctx) override {
    gp_ = ctx.conductance(a_, b_);
    ip_ = ctx.current_source(a_, b_);
  }

  void load(LoadContext& ctx) override {
    ctx.stamp_conductance(gp_, g_);
    ctx.stamp_current_source(ip_, i_);
  }

 private:
  NodeId a_;
  NodeId b_;
  double g_;
  double i_;
  ConductancePattern gp_;
  CurrentPattern ip_;
};

Circuit healthy_core(NodeId* n1, NodeId* n2) {
  Circuit c;
  *n1 = c.node("n1");
  *n2 = c.node("n2");
  c.add<VoltageSource>("V1", *n1, kGround, SourceSpec::dc(1.0));
  c.add<Resistor>("R1", *n1, *n2, 1e3);
  c.add<Resistor>("R2", *n2, kGround, 1e3);
  return c;
}

void expect_guard_names(Circuit& c, const std::string& device) {
  SolverOptions options;
  options.lint = false;  // the guard, not the pre-solve lint, is under test
  Engine engine(c, options);
  try {
    engine.solve_op();
    FAIL() << "expected ConvergenceError naming " << device;
  } catch (const ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find(device), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << e.what();
  }
}

TEST(NonFiniteGuard, NamesDeviceThatStampsNanConductance) {
  NodeId n1, n2;
  Circuit c = healthy_core(&n1, &n2);
  c.add<PoisonDevice>("Xnan", n2, kGround, kNan, 0.0);
  expect_guard_names(c, "Xnan");
}

TEST(NonFiniteGuard, NamesDeviceThatStampsInfiniteRhs) {
  NodeId n1, n2;
  Circuit c = healthy_core(&n1, &n2);
  c.add<PoisonDevice>("Xinf", n2, kGround, 1e-3, kInf);
  expect_guard_names(c, "Xinf");
}

TEST(NonFiniteGuard, OverflowingSolutionFailsTheIterationUnclamped) {
  // Finite stamps whose solution overflows: 1e300 A into the gmin floor
  // of a node puts it at +inf. The iteration must fail at once, as a
  // non-finite iterate; clamping the step first would turn the infinite
  // step into a finite 0.5 V one and keep iterating.
  Circuit c;
  const NodeId n = c.node("n");
  c.add<PoisonDevice>("Xhuge", kGround, n, 0.0, 1e300);
  SolverOptions options;
  options.lint = false;
  Engine engine(c, options);
  std::vector<double> x = engine.make_initial_guess();
  int iterations = 0;
  EXPECT_FALSE(engine.newton(x, AnalysisMode::kDcOp, 0.0,
                             IntegrationMethod::kTrapezoidal, 0.0,
                             options.gmin, 1.0, &iterations));
  EXPECT_EQ(iterations, 1);
  EXPECT_EQ(x[n], 0.0);  // the caller's iterate is left as it was
}

TEST(NonFiniteGuard, FiniteCustomDeviceStillSolves) {
  // Control: the same custom device with finite stamps solves cleanly,
  // so the guard only fires on genuinely poisoned systems.
  NodeId n1, n2;
  Circuit c = healthy_core(&n1, &n2);
  c.add<PoisonDevice>("Xok", n2, kGround, 1e-3, 1e-6);
  SolverOptions options;
  options.lint = false;
  Engine engine(c, options);
  const Solution sol = engine.solve_op();
  EXPECT_NEAR(sol.v(n1), 1.0, 1e-9);
  EXPECT_TRUE(std::isfinite(sol.v(n2)));
}

}  // namespace
}  // namespace sscl::spice
