// One test per analog ERC rule: a clean circuit passes, a seeded
// violation is reported with the right rule id and location.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "device/mosfet.hpp"
#include "lint/check.hpp"
#include "lint/circuit_view.hpp"
#include "spice/elements.hpp"
#include "spice/engine.hpp"

namespace sscl::lint {
namespace {

using device::MosGeometry;
using device::Mosfet;
using device::Process;
using spice::Capacitor;
using spice::Circuit;
using spice::CurrentSource;
using spice::kGround;
using spice::NodeId;
using spice::Resistor;
using spice::SourceSpec;
using spice::VoltageSource;

const Process kProc = Process::c180();
const MosGeometry kGeo{2e-6, 1e-6, 0, 0};

const Diagnostic* find_diag(const Report& r, const std::string& rule) {
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

TEST(LintCircuit, CleanDividerPasses) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId mid = c.node("mid");
  c.add<VoltageSource>("V1", vdd, kGround, SourceSpec::dc(1.0));
  c.add<Resistor>("R1", vdd, mid, 1e3);
  c.add<Resistor>("R2", mid, kGround, 1e3);
  const Report r = check_circuit(c);
  EXPECT_TRUE(r.clean()) << r.text();
  EXPECT_EQ(r.count(Severity::kWarning), 0) << r.text();
}

TEST(LintCircuit, FloatingNodeIsland) {
  Circuit c;
  c.add<VoltageSource>("V1", c.node("vdd"), kGround, SourceSpec::dc(1.0));
  c.add<Resistor>("Rload", c.node("vdd"), kGround, 1e6);
  // Resistive island with no ground reference.
  c.add<Resistor>("R1", c.node("a"), c.node("b"), 1e3);
  const Report r = check_circuit(c);
  const Diagnostic* d = find_diag(r, "floating-node");
  ASSERT_NE(d, nullptr) << r.text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("a"), std::string::npos);

  // Disabling works by diagnostic id as well as by family rule id.
  Options by_diag;
  by_diag.disabled = {"floating-node"};
  EXPECT_EQ(find_diag(check_circuit(c, by_diag), "floating-node"), nullptr);
  Options by_rule;
  by_rule.disabled = {"dc-path"};
  EXPECT_EQ(find_diag(check_circuit(c, by_rule), "floating-node"), nullptr);
}

TEST(LintCircuit, CurrentSourceCutset) {
  Circuit c;
  c.add<CurrentSource>("I1", kGround, c.node("n"), SourceSpec::dc(1e-9));
  const Report r = check_circuit(c);
  const Diagnostic* d = find_diag(r, "isource-cutset");
  ASSERT_NE(d, nullptr) << r.text();
  EXPECT_EQ(d->location, "n");
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST(LintCircuit, CapOnlyNode) {
  Circuit c;
  c.add<Capacitor>("C1", c.node("hold"), kGround, 1e-12);
  const Report r = check_circuit(c);
  const Diagnostic* d = find_diag(r, "cap-only-node");
  ASSERT_NE(d, nullptr) << r.text();
  EXPECT_EQ(d->location, "hold");
}

TEST(LintCircuit, DanglingMosGateInput) {
  Circuit c;
  c.add<Resistor>("R1", c.node("d"), kGround, 1e6);
  c.add<Mosfet>("M1", c.node("d"), c.node("g"), kGround, kGround, kProc.nmos,
                kGeo);
  const Report r = check_circuit(c);
  const Diagnostic* d = find_diag(r, "dangling-input");
  ASSERT_NE(d, nullptr) << r.text();
  EXPECT_EQ(d->location, "g");
}

TEST(LintCircuit, VoltageSourceLoop) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add<VoltageSource>("V1", a, kGround, SourceSpec::dc(1.0));
  c.add<VoltageSource>("V2", a, kGround, SourceSpec::dc(2.0));
  const Report r = check_circuit(c);
  const Diagnostic* d = find_diag(r, "vsource-loop");
  ASSERT_NE(d, nullptr) << r.text();
  EXPECT_EQ(d->location, "V2");
}

TEST(LintCircuit, EngineRefusesVoltageSourceLoop) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add<VoltageSource>("V1", a, kGround, SourceSpec::dc(1.0));
  c.add<VoltageSource>("V2", a, kGround, SourceSpec::dc(2.0));
  EXPECT_THROW(spice::Engine engine(c), LintError);
}

TEST(LintCircuit, EngineLintOptOutFlag) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add<VoltageSource>("V1", a, kGround, SourceSpec::dc(1.0));
  c.add<VoltageSource>("V2", a, kGround, SourceSpec::dc(1.0));
  spice::SolverOptions opts;
  opts.lint = false;
  EXPECT_NO_THROW(spice::Engine engine(c, opts));
}

TEST(LintCircuit, DanglingTerminalWarning) {
  Circuit c;
  c.add<VoltageSource>("V1", c.node("vdd"), kGround, SourceSpec::dc(1.0));
  c.add<Resistor>("Rload", c.node("vdd"), kGround, 1e6);
  // "stub" is touched by exactly one terminal; grounded through R2.
  c.add<Resistor>("R2", c.node("stub"), kGround, 1e3);
  const Report r = check_circuit(c);
  const Diagnostic* d = find_diag(r, "dangling-terminal");
  ASSERT_NE(d, nullptr) << r.text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->location, "stub");
  EXPECT_TRUE(r.clean()) << r.text();
}

TEST(LintCircuit, UnusedNodeInfoAndOptOut) {
  Circuit c;
  c.add<Resistor>("R1", c.node("a"), kGround, 1e3);
  c.add<VoltageSource>("V1", c.node("a"), kGround, SourceSpec::dc(1.0));
  c.node("spare");
  Report r = check_circuit(c);
  const Diagnostic* d = find_diag(r, "unused-node");
  ASSERT_NE(d, nullptr) << r.text();
  EXPECT_EQ(d->location, "spare");
  EXPECT_EQ(d->severity, Severity::kInfo);

  Options no_info;
  no_info.include_info = false;
  EXPECT_EQ(find_diag(check_circuit(c, no_info), "unused-node"), nullptr);

  Options disabled;
  disabled.disabled = {"unused-node"};
  EXPECT_EQ(find_diag(check_circuit(c, disabled), "unused-node"), nullptr);
}

TEST(LintCircuit, ElementValueRejectsNonPhysical) {
  // The element constructors reject plain non-positive values, but NaN
  // slips through every comparison — exactly the case lint must catch
  // before it poisons the Jacobian.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Circuit c;
  c.add<VoltageSource>("V1", c.node("a"), kGround, SourceSpec::dc(1.0));
  c.add<Resistor>("Rnan", c.node("a"), kGround, nan);
  c.add<Capacitor>("Cnan", c.node("a"), kGround, nan);
  c.add<Capacitor>("Czero", c.node("a"), kGround, 0.0);
  const Report r = check_circuit(c);
  int errors = 0, infos = 0;
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.rule != "element-value") continue;
    if (d.severity == Severity::kError) ++errors;
    if (d.severity == Severity::kInfo) ++infos;
  }
  EXPECT_EQ(errors, 2) << r.text();  // two non-finite values
  EXPECT_EQ(infos, 1) << r.text();   // zero capacitance
}

TEST(LintCircuit, UnbiasedSourceCoupledPair) {
  Circuit c;
  const NodeId s = c.node("tail");
  c.add<VoltageSource>("Vg", c.node("g"), kGround, SourceSpec::dc(0.5));
  c.add<Resistor>("Rd1", c.node("d1"), kGround, 1e6);
  c.add<Resistor>("Rd2", c.node("d2"), kGround, 1e6);
  c.add<Mosfet>("M1", c.node("d1"), c.node("g"), s, kGround, kProc.nmos, kGeo);
  c.add<Mosfet>("M2", c.node("d2"), c.node("g"), s, kGround, kProc.nmos, kGeo);
  const Report r = check_circuit(c);
  const Diagnostic* d = find_diag(r, "unbiased-tail");
  ASSERT_NE(d, nullptr) << r.text();
  EXPECT_EQ(d->location, "tail");
  EXPECT_NE(d->message.find("M1"), std::string::npos);

  // Adding a tail current source fixes it.
  c.add<CurrentSource>("Iss", s, kGround, SourceSpec::dc(1e-10));
  EXPECT_EQ(find_diag(check_circuit(c), "unbiased-tail"), nullptr);
}

// The tail rules check one source-coupled group per source node: the
// NMOS group where both polarities share the node. Groups sourced on a
// supply rail are checked too.
TEST(LintCircuit, TailRulesCheckOneGroupPerSourceNode) {
  Circuit c;
  const NodeId s = c.node("tail");
  const NodeId vdd = c.node("vdd");
  const NodeId g = c.node("g");
  c.add<VoltageSource>("Vdd", vdd, kGround, SourceSpec::dc(1.0));
  c.add<VoltageSource>("Vg", g, kGround, SourceSpec::dc(0.5));
  const char* drains[] = {"d1", "d2", "d3", "d4", "d5", "d6"};
  for (const char* d : drains) {
    c.add<Resistor>(std::string("R") + d, c.node(d), kGround, 1e6);
  }
  c.add<Mosfet>("M1", c.node("d1"), g, s, kGround, kProc.nmos, kGeo);
  c.add<Mosfet>("M2", c.node("d2"), g, s, kGround, kProc.nmos, kGeo);
  c.add<Mosfet>("M3", c.node("d3"), g, s, vdd, kProc.pmos, kGeo);
  c.add<Mosfet>("M4", c.node("d4"), g, s, vdd, kProc.pmos, kGeo);
  c.add<CurrentSource>("Itail", s, kGround, SourceSpec::dc(1e-3));
  // PMOS loads on the rail, with 1 mA drawn from it.
  c.add<Mosfet>("M5", c.node("d5"), g, vdd, vdd, kProc.pmos, kGeo);
  c.add<Mosfet>("M6", c.node("d6"), g, vdd, vdd, kProc.pmos, kGeo);
  c.add<CurrentSource>("Irail", vdd, kGround, SourceSpec::dc(1e-3));

  Options options;
  options.disabled = {"op-region"};  // the local estimate, not intervals
  const Report r = check_circuit(c, options);
  std::string at_tail;
  std::string at_rail;
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.rule != "weak-inversion-bias") continue;
    (d.location == "tail" ? at_tail : at_rail) += d.message + "\n";
  }
  EXPECT_NE(at_tail.find("biases M1 "), std::string::npos) << r.text();
  EXPECT_EQ(at_tail.find("biases", at_tail.find("biases") + 1),
            std::string::npos)
      << r.text();
  EXPECT_NE(at_rail.find("biases M5 "), std::string::npos) << r.text();
}

TEST(LintCircuit, WeakInversionBiasWindow) {
  auto build = [](double iss) {
    auto c = std::make_unique<Circuit>();
    const NodeId s = c->node("tail");
    c->add<VoltageSource>("Vg", c->node("g"), kGround, SourceSpec::dc(0.5));
    c->add<Resistor>("Rd1", c->node("d1"), kGround, 1e6);
    c->add<Resistor>("Rd2", c->node("d2"), kGround, 1e6);
    c->add<Mosfet>("M1", c->node("d1"), c->node("g"), s, kGround, kProc.nmos,
                   kGeo);
    c->add<Mosfet>("M2", c->node("d2"), c->node("g"), s, kGround, kProc.nmos,
                   kGeo);
    c->add<CurrentSource>("Iss", s, kGround, SourceSpec::dc(iss));
    return c;
  };
  // 100 pA on a 2u/1u pair is deep weak inversion: no finding.
  EXPECT_EQ(find_diag(check_circuit(*build(1e-10)), "weak-inversion-bias"),
            nullptr);
  // 1 mA is strong inversion: warn.
  const Report r = check_circuit(*build(1e-3));
  const Diagnostic* d = find_diag(r, "weak-inversion-bias");
  ASSERT_NE(d, nullptr) << r.text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->location, "tail");
}

// A device that cannot describe itself downgrades connectivity findings
// to warnings: lint cannot rule out that it provides the missing path.
class OpaqueDevice final : public spice::Device {
 public:
  explicit OpaqueDevice(std::string name) : Device(std::move(name)) {}
  void load(spice::LoadContext&) override {}
};

TEST(LintCircuit, UndescribedDeviceDowngradesToWarning) {
  Circuit c;
  c.add<Resistor>("R1", c.node("a"), c.node("b"), 1e3);
  c.add<OpaqueDevice>("U1");
  CircuitView view(c);
  EXPECT_FALSE(view.fully_described());
  const Report r = check_circuit(c);
  const Diagnostic* d = find_diag(r, "floating-node");
  ASSERT_NE(d, nullptr) << r.text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_TRUE(r.clean());
}

}  // namespace
}  // namespace sscl::lint
