#include <gtest/gtest.h>

#include "spice/circuit.hpp"
#include "spice/dcsweep.hpp"
#include "spice/elements.hpp"
#include "spice/engine.hpp"

namespace sscl::spice {
namespace {

TEST(DcOp, VoltageDivider) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("V1", in, kGround, SourceSpec::dc(1.0));
  c.add<Resistor>("R1", in, out, 1e3);
  c.add<Resistor>("R2", out, kGround, 3e3);

  Engine engine(c);
  const Solution op = engine.solve_op();
  EXPECT_NEAR(op.v(in), 1.0, 1e-9);
  EXPECT_NEAR(op.v(out), 0.75, 1e-6);
}

TEST(DcOp, VoltageSourceBranchCurrent) {
  Circuit c;
  const NodeId in = c.node("in");
  auto* v1 = c.add<VoltageSource>("V1", in, kGround, SourceSpec::dc(2.0));
  c.add<Resistor>("R1", in, kGround, 1e3);
  Engine engine(c);
  const Solution op = engine.solve_op();
  // 2 mA flows out of the source's positive terminal, so the branch
  // current (pos->neg internal) is -2 mA.
  EXPECT_NEAR(op.branch_current(v1->branch()), -2e-3, 1e-9);
}

TEST(DcOp, CurrentSourceIntoResistor) {
  Circuit c;
  const NodeId n1 = c.node("n1");
  // 1 uA flowing from ground into n1 (SPICE convention: I pos->neg
  // internally, so connect pos=gnd, neg=n1 to push current into n1).
  c.add<CurrentSource>("I1", kGround, n1, SourceSpec::dc(1e-6));
  c.add<Resistor>("R1", n1, kGround, 1e6);
  Engine engine(c);
  const Solution op = engine.solve_op();
  EXPECT_NEAR(op.v(n1), 1.0, 1e-6);
}

TEST(DcOp, VcvsGain) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("Vin", in, kGround, SourceSpec::dc(0.1));
  c.add<Vcvs>("E1", out, kGround, in, kGround, 10.0);
  c.add<Resistor>("RL", out, kGround, 1e3);
  Engine engine(c);
  const Solution op = engine.solve_op();
  EXPECT_NEAR(op.v(out), 1.0, 1e-9);
}

TEST(DcOp, VccsTransconductance) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("Vin", in, kGround, SourceSpec::dc(0.5));
  // i = gm * vin flowing out -> gnd through the element; with pos=out the
  // current is pulled out of 'out', so the load sees -gm*vin*R.
  c.add<Vccs>("G1", out, kGround, in, kGround, 1e-3);
  c.add<Resistor>("RL", out, kGround, 2e3);
  Engine engine(c);
  const Solution op = engine.solve_op();
  EXPECT_NEAR(op.v(out), -1.0, 1e-9);
}

TEST(DcOp, CccsMirrorsCurrent) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  auto* vs = c.add<VoltageSource>("Vs", a, kGround, SourceSpec::dc(1.0));
  c.add<Resistor>("R1", a, kGround, 1e3);  // 1 mA through Vs
  c.add<Cccs>("F1", b, kGround, vs, 2.0);
  c.add<Resistor>("R2", b, kGround, 1e3);
  Engine engine(c);
  const Solution op = engine.solve_op();
  // Branch current of Vs is -1 mA; F pushes gain*i out of node b.
  EXPECT_NEAR(op.v(b), 2.0, 1e-6);
}

TEST(DcOp, CcvsTransresistance) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  auto* vs = c.add<VoltageSource>("Vs", a, kGround, SourceSpec::dc(1.0));
  c.add<Resistor>("R1", a, kGround, 1e3);
  c.add<Ccvs>("H1", b, kGround, vs, 4e3);
  c.add<Resistor>("R2", b, kGround, 1e3);
  Engine engine(c);
  const Solution op = engine.solve_op();
  EXPECT_NEAR(op.v(b), -4.0, 1e-6);
}

TEST(DcOp, SoftOpampFollower) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("Vin", in, kGround, SourceSpec::dc(0.6));
  // Unity feedback: high-gain opamp forces out == in.
  c.add<SoftOpamp>("X1", out, in, out, 1e5, 0.0, 1.8);
  c.add<Resistor>("RL", out, kGround, 1e6);
  Engine engine(c);
  const Solution op = engine.solve_op();
  EXPECT_NEAR(op.v(out), 0.6, 1e-3);
}

TEST(DcOp, SoftOpampClampsAtRails) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("Vin", in, kGround, SourceSpec::dc(5.0));
  c.add<SoftOpamp>("X1", out, in, kGround, 1e4, 0.0, 1.8);
  c.add<Resistor>("RL", out, kGround, 1e6);
  Engine engine(c);
  const Solution op = engine.solve_op();
  EXPECT_GT(op.v(out), 1.75);
  EXPECT_LE(op.v(out), 1.8 + 1e-9);
}

TEST(DcOp, FloatingNodeHandledByGmin) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add<VoltageSource>("V1", a, kGround, SourceSpec::dc(1.0));
  c.add<Resistor>("R1", a, b, 1e3);
  // Node b has no DC path except through R1 and gmin to ground: it should
  // settle at ~1 V without a singular matrix.
  c.add<Capacitor>("C1", b, kGround, 1e-12);
  Engine engine(c);
  const Solution op = engine.solve_op();
  EXPECT_NEAR(op.v(b), 1.0, 1e-3);
}

TEST(DcSweep, ResistorLadderSweep) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  auto* v1 = c.add<VoltageSource>("V1", in, kGround, SourceSpec::dc(0.0));
  c.add<Resistor>("R1", in, mid, 1e3);
  c.add<Resistor>("R2", mid, kGround, 1e3);
  Engine engine(c);
  const auto values = std::vector<double>{0.0, 0.5, 1.0, 1.5, 2.0};
  const DcSweepResult sweep = run_dc_sweep(
      engine, values, [&](double v) { v1->set_spec(SourceSpec::dc(v)); });
  ASSERT_EQ(sweep.solutions.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(sweep.solutions[i].v(mid), values[i] / 2, 1e-9);
  }
  const auto mids = sweep.voltage(mid);
  EXPECT_NEAR(mids.back(), 1.0, 1e-9);
}

TEST(Circuit, NodeNamesAndGround) {
  Circuit c;
  EXPECT_EQ(c.node("0"), kGround);
  EXPECT_EQ(c.node("GND"), kGround);
  const NodeId a = c.node("A");
  EXPECT_EQ(c.node("a"), a);  // case-insensitive
  EXPECT_EQ(c.node_name(a), "a");
  EXPECT_EQ(c.node_name(kGround), "0");
  EXPECT_FALSE(c.find_node("nope").has_value());
  const NodeId internal = c.internal_node("x");
  EXPECT_NE(internal, a);
}

TEST(Circuit, FindDevice) {
  Circuit c;
  c.add<Resistor>("R1", c.node("a"), kGround, 1.0e3);
  EXPECT_NE(c.find_device("R1"), nullptr);
  EXPECT_EQ(c.find_device("r1"), c.find_device("R1"));  // case-insensitive
  EXPECT_EQ(c.find_device("R2"), nullptr);
}

TEST(Circuit, RejectsInvalidElements) {
  Circuit c;
  EXPECT_THROW(Resistor("R", c.node("a"), kGround, -5.0),
               std::invalid_argument);
  EXPECT_THROW(Capacitor("C", c.node("a"), kGround, -1e-12),
               std::invalid_argument);
  EXPECT_THROW(Inductor("L", c.node("a"), kGround, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace sscl::spice
