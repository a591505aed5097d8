#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "netlist/expr.hpp"
#include "spice/device.hpp"

namespace sscl::netlist {
namespace {

spice::DeviceInfo mos_info(const spice::Circuit& c, const std::string& name) {
  const spice::Device* dev = c.find_device(name);
  EXPECT_NE(dev, nullptr) << name;
  spice::DeviceInfo info;
  EXPECT_TRUE(dev->describe(info));
  EXPECT_TRUE(info.is_mosfet) << name;
  return info;
}

spice::DeviceInfo info_of(const spice::Circuit& c, const std::string& name) {
  const spice::Device* dev = c.find_device(name);
  spice::DeviceInfo info;
  EXPECT_TRUE(dev != nullptr && dev->describe(info)) << name;
  return info;
}

double resistance(const spice::Circuit& c, const std::string& name) {
  const spice::DeviceInfo info = info_of(c, name);
  return info.edges.empty() ? 0.0 : info.edges[0].value;
}

/// The nodes of a two-terminal device, in terminal order.
std::pair<spice::NodeId, spice::NodeId> ends_of(const spice::Circuit& c,
                                                const std::string& name) {
  const spice::DeviceInfo info = info_of(c, name);
  if (info.terminals.size() != 2) return {-2, -2};
  return {info.terminals[0].node, info.terminals[1].node};
}

/// The NetlistError a deck fails with.
NetlistError error_of(const std::string& text) {
  try {
    parse_netlist(text);
  } catch (const NetlistError& e) {
    return e;
  }
  ADD_FAILURE() << "expected NetlistError";
  return NetlistError({}, "", "");
}

TEST(Elaborate, HierarchicalNamesAndPortMapping) {
  const Deck deck = parse_netlist(R"(two buffers
.subckt inv in out vp
Mp out in vp vp pmos W=2u L=0.2u
Mn out in 0 0 nmos W=1u L=0.2u
.ends
Vdd vdd 0 1.0
Xa a b vdd inv
Xb b c vdd inv
.end
)");
  const spice::Circuit& c = *deck.circuit;
  // Flat devices carry the dotted hierarchical path...
  EXPECT_NE(c.find_device("xa.mp"), nullptr);
  EXPECT_NE(c.find_device("xa.mn"), nullptr);
  EXPECT_NE(c.find_device("xb.mn"), nullptr);
  // ...top-level elements keep their original spelling.
  EXPECT_NE(c.find_device("Vdd"), nullptr);

  // Ports map onto the caller's nodes: xa drives b, xb reads it.
  const auto info_a = mos_info(c, "xa.mn");
  const auto info_b = mos_info(c, "xb.mn");
  ASSERT_TRUE(c.find_node("b").has_value());
  EXPECT_EQ(info_a.mos_d, *c.find_node("b"));
  EXPECT_EQ(info_b.mos_g, *c.find_node("b"));
  // The supply reached the subckt through the vp port, not by capture.
  ASSERT_TRUE(c.find_node("vdd").has_value());
  EXPECT_EQ(mos_info(c, "xa.mp").mos_b, *c.find_node("vdd"));
}

TEST(Elaborate, SubcktInternalNodesArePrefixed) {
  const Deck deck = parse_netlist(R"(internal node
.subckt rdiv a b
R1 a mid 1k
R2 mid b 1k
.ends
X1 in 0 rdiv
.end
)");
  const spice::Circuit& c = *deck.circuit;
  EXPECT_TRUE(c.find_node("x1.mid").has_value());
  EXPECT_FALSE(c.find_node("mid").has_value());
  EXPECT_NE(c.find_device("x1.r1"), nullptr);
}

TEST(Elaborate, GlobalNodesBypassPrefixing) {
  const Deck deck = parse_netlist(R"(global supply
.global vdd!
Vdd vdd! 0 0.4
.subckt inv in out
Mp out in vdd! vdd! pmos W=2u L=0.2u
Mn out in 0 0 nmos W=1u L=0.2u
.ends
X1 a b inv
.end
)");
  const spice::Circuit& c = *deck.circuit;
  ASSERT_TRUE(c.find_node("vdd!").has_value());
  EXPECT_FALSE(c.find_node("x1.vdd!").has_value());
  const auto info = mos_info(c, "x1.mp");
  EXPECT_EQ(info.mos_b, *c.find_node("vdd!"));
}

TEST(Elaborate, ParamDefaultsOverridesAndScopes) {
  const Deck deck = parse_netlist(R"(scoping
.param w=1u
.subckt inv in out w=3u
Mn out in 0 0 nmos W='w' L=1u
.ends
X1 a b inv w='2*w'
X2 a b inv
.end
)");
  const spice::Circuit& c = *deck.circuit;
  // X1's override evaluates in the CALLER's scope: 2 * (global w=1u).
  EXPECT_NEAR(mos_info(c, "x1.mn").mos_w, 2e-6, 1e-18);
  // X2 falls back to the subckt default.
  EXPECT_NEAR(mos_info(c, "x2.mn").mos_w, 3e-6, 1e-18);
  // The global environment snapshot only holds top-level .params.
  ASSERT_EQ(deck.params.count("w"), 1u);
  EXPECT_NEAR(deck.params.at("w"), 1e-6, 1e-18);
}

TEST(Elaborate, ParamArithmeticChains) {
  const Deck deck = parse_netlist(R"(chained params
.param vdd=0.4 half='vdd/2' quarter='half/2'
V1 a 0 'quarter'
R1 a 0 1k
.end
)");
  EXPECT_NEAR(deck.params.at("half"), 0.2, 1e-15);
  EXPECT_NEAR(deck.params.at("quarter"), 0.1, 1e-15);
}

TEST(Elaborate, TempCardRetunesDeviceCards) {
  const std::string body = R"(
M1 d g 0 0 nmos W=1u L=0.2u
Vd d 0 0.4
Vg g 0 0.4
.end
)";
  const Deck cold = parse_netlist("t\n.temp 27\n" + body);
  const Deck hot = parse_netlist("t\n.temp 85\n" + body);
  EXPECT_TRUE(hot.has_temp);
  EXPECT_NEAR(hot.temperature_k, 358.15, 1e-9);
  EXPECT_NEAR(mos_info(*cold.circuit, "M1").mos_temp, 300.15, 1e-9);
  EXPECT_NEAR(mos_info(*hot.circuit, "M1").mos_temp, 358.15, 1e-9);
}

TEST(Elaborate, NestingLimitReportsInstantiationChain) {
  ParseOptions options;
  options.max_subckt_depth = 2;
  try {
    parse_netlist(R"(recursive
.subckt loop a
X1 a loop
.ends
X1 top loop
.end
)",
                  options);
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    EXPECT_NE(e.message().find("nesting deeper than 2"), std::string::npos)
        << e.message();
    EXPECT_NE(e.message().find("recursion via x1(loop) -> x1.x1(loop)"),
              std::string::npos)
        << e.message();
    EXPECT_NE(e.message().find("raise max_subckt_depth"), std::string::npos);
  }
}

TEST(Elaborate, DeeperLimitAcceptsTheSameDeck) {
  const std::string text = R"(three deep
.subckt leaf a
R1 a 0 1k
.ends
.subckt mid a
X1 a leaf
.ends
.subckt top a
X1 a mid
.ends
Xt in top
.end
)";
  ParseOptions tight;
  tight.max_subckt_depth = 2;
  EXPECT_THROW(parse_netlist(text, tight), NetlistError);

  ParseOptions roomy;
  roomy.max_subckt_depth = 3;
  const Deck deck = parse_netlist(text, roomy);
  EXPECT_NE(deck.circuit->find_device("xt.x1.x1.r1"), nullptr);
}

TEST(Elaborate, UnknownCardWarnsByDefaultFailsStrict) {
  const std::string text = R"(foreign cards
R1 a 0 1k
V1 a 0 1
.probe v(a)
.end
)";
  const Deck deck = parse_netlist(text);
  ASSERT_FALSE(deck.warnings.empty());
  bool saw = false;
  for (const auto& w : deck.warnings) {
    if (w.message.find("unsupported card '.probe'") != std::string::npos) {
      saw = true;
      EXPECT_EQ(w.loc.line, 4);
      EXPECT_EQ(w.location, "<deck>:4:1");
    }
  }
  EXPECT_TRUE(saw);

  ParseOptions strict;
  strict.strict = true;
  try {
    parse_netlist(text, strict);
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    EXPECT_EQ(e.message(), "unsupported card '.probe'");
    EXPECT_EQ(e.loc().line, 4);
  }
}

TEST(Elaborate, IcAndNodesetCards) {
  const Deck deck = parse_netlist(R"(ic cards
R1 N1 n2 1k
C1 n2 0 1p
V1 n1 0 1
.ic v(N2)=0.5
.nodeset v(n1)=1.0 v(n2)=0.25
.end
)");
  ASSERT_EQ(deck.ics.size(), 1u);
  EXPECT_EQ(deck.ics[0].node, "n2");
  EXPECT_DOUBLE_EQ(deck.ics[0].volts, 0.5);
  ASSERT_EQ(deck.nodesets.size(), 2u);
  EXPECT_EQ(deck.nodesets[0].node, "n1");
  EXPECT_DOUBLE_EQ(deck.nodesets[1].volts, 0.25);
}

TEST(Elaborate, MeasureCardsEvaluateThresholdExpressions) {
  const Deck deck = parse_netlist(R"(measures
.param vdd=0.4
V1 in 0 PULSE(0 'vdd' 1n 1n 1n 10n 20n)
R1 in 0 1k
.tran 20n
.measure tran tcross trig v(in) val='vdd/2' rise=1 targ v(in) val='vdd/2' fall=2 td=1n
.measure tran emid param='vdd*2'
.end
)");
  ASSERT_EQ(deck.measures.size(), 2u);
  const MeasureSpec& m = deck.measures[0];
  EXPECT_EQ(m.name, "tcross");
  EXPECT_EQ(m.kind, MeasureSpec::Kind::kTrigTarg);
  EXPECT_NEAR(m.trig.level, 0.2, 1e-15);
  EXPECT_EQ(m.trig.edge, MeasureSpec::EdgeSel::kRise);
  EXPECT_EQ(m.targ.edge, MeasureSpec::EdgeSel::kFall);
  EXPECT_EQ(m.targ.count, 2);
  EXPECT_NEAR(m.targ.td, 1e-9, 1e-21);
  EXPECT_EQ(m.targ.probe.ref, "in");

  EXPECT_EQ(deck.measures[1].kind, MeasureSpec::Kind::kParam);
  EXPECT_EQ(deck.measures[1].expr, "vdd*2");
}

TEST(Elaborate, DegenerateAnalysisCardsFailAtTheCard) {
  // Each card used to elaborate: the .dc and .ac ones then grew a sweep
  // until allocation failed (or printed 0 Hz bandwidths), and .tran 0
  // failed inside the engine with no location.
  struct Case {
    const char* card;
    const char* message;
  };
  const Case cases[] = {
      {".dc V1 0 1 0", ".dc needs step > 0"},
      {".dc V1 0 1 -0.25", ".dc needs step > 0"},
      {".dc V1 1 0 0.25", ".dc needs stop >= start"},
      {".dc V1 0 '1/0' 0.25", ".dc: '1/0' is not finite"},
      {".ac dec 0 1 1meg", ".ac point count must be a whole number"},
      {".ac dec -3 1 1meg", ".ac point count must be a whole number"},
      {".ac dec 2.5 1 1meg", ".ac point count must be a whole number"},
      {".ac dec 1e10 1 1meg", ".ac point count must be a whole number"},
      {".ac dec 10 1meg 1", ".ac needs 0 < fstart <= fstop"},
      {".ac dec 10 0 1meg", ".ac needs 0 < fstart <= fstop"},
      {".ac dec 10 1 1e999", ".ac: '1e999' is not finite"},
      {".tran 0", ".tran needs tstop > 0"},
      {".tran 1n -1n", ".tran needs tstop > 0"},
      {".tran 1n '1/0'", ".tran: '1/0' is not finite"},
  };
  for (const Case& c : cases) {
    const std::string text = std::string("degenerate\nV1 in 0 1\n") +
                             "R1 in 0 1k\n" + c.card + "\n.end\n";
    try {
      parse_netlist(text);
      ADD_FAILURE() << c.card << ": expected NetlistError";
    } catch (const NetlistError& e) {
      EXPECT_EQ(e.location(), "<deck>:4:1") << c.card;
      EXPECT_NE(e.message().find(c.message), std::string::npos)
          << c.card << ": " << e.message();
    }
  }
}

TEST(Elaborate, LegacyErrorMessagesSurviveTheShim) {
  ParseOptions strict;
  strict.strict = true;
  try {
    parse_netlist("t\nR1 a 0 notanumber4\n.end\n", strict);
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    // Number-like garbage keeps the legacy wording the seed tests pin.
    EXPECT_NE(e.message().find("in 'notanumber4'"), std::string::npos)
        << e.message();
  }
  try {
    parse_netlist("t\nX1 a nosuchsub\n.end\n", strict);
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    EXPECT_EQ(e.message(), "unknown subckt 'nosuchsub'");
  }
}

TEST(Elaborate, OneBodyTokenEvaluatesPerInstance) {
  // The body token is compiled once; its code, not a value, is reused.
  const Deck deck = parse_netlist(R"(per-instance values
.param g=2
.subckt seg a b r=1k
R1 a b {r*g + 1}
.ends
X1 n1 0 seg r=10
X2 n1 0 seg r={g*10}
X3 n1 0 seg
V1 n1 0 1
.end
)");
  const spice::Circuit& c = *deck.circuit;
  EXPECT_DOUBLE_EQ(resistance(c, "x1.r1"), 21.0);
  EXPECT_DOUBLE_EQ(resistance(c, "x2.r1"), 41.0);
  EXPECT_DOUBLE_EQ(resistance(c, "x3.r1"), 2001.0);
  // {r*g + 1} compiled once and run three times; {g*10} compiled and
  // run once; the numbers (10, 1k, 1) are no expressions.
  EXPECT_EQ(deck.front_end.elements, 4u);
  EXPECT_EQ(deck.front_end.compiled_expressions, 2u);
  EXPECT_EQ(deck.front_end.expression_evaluations, 4u);
}

TEST(Elaborate, ServeBenchFrontEndCounts) {
  std::ifstream in(std::string(SSCL_EXAMPLE_DECK_DIR) + "/serve_bench.sp");
  std::ostringstream os;
  os << in.rdbuf();
  const Deck deck = parse_netlist(os.str());
  EXPECT_EQ(deck.front_end.elements, 2050u);
  EXPECT_EQ(deck.front_end.expression_evaluations, 2635u);
  EXPECT_EQ(deck.front_end.compiled_expressions, 31u);
}

TEST(Elaborate, SyntaxErrorsInABodyWaitForAnInstance) {
  const std::string defs = R"(lazy bodies
.subckt never a b
R1 a b {1 + * 2}
.ends
R1 a 0 1k
)";
  // Never instantiated: never compiled, so never reported.
  EXPECT_NO_THROW(parse_netlist(defs + ".end\n"));
  const NetlistError e = error_of(defs + "X1 a 0 never\n.end\n");
  EXPECT_EQ(e.location(), "<deck>:3:8");
  EXPECT_EQ(e.message(), "in '1 + * 2': unexpected '*' in expression");
}

TEST(Elaborate, ExpressionErrorsInABodyKeepTheirOrder) {
  struct Case {
    const char* value;
    const char* message;
  };
  const Case cases[] = {
      {"{foo(zz)}", "in 'foo(zz)': unknown parameter 'zz'"},
      {"{q + (}", "in 'q + (': unknown parameter 'q'"},
      {"{sqrt(1, zz)}", "in 'sqrt(1, zz)': unknown parameter 'zz'"},
      {"{sqrt(1, k)}", "in 'sqrt(1, k)': sqrt expects one argument"},
  };
  for (const Case& c : cases) {
    // Two instances: the error is the same on the first use of the
    // compiled code and would be on any later one.
    const std::string text = std::string("t\n.subckt s a b k=1\nR1 a b ") +
                             c.value + "\n.ends\nX1 n1 0 s\nX2 n1 0 s\n.end\n";
    const NetlistError e = error_of(text);
    EXPECT_EQ(e.location(), "<deck>:3:8") << c.value;
    EXPECT_EQ(e.message(), c.message);
  }
}

TEST(Elaborate, DeepExpressionIsALocatedError) {
  // 30,000 levels overflowed the stack of the recursive interpreter.
  const std::string deep = std::string(30000, '(') + "1" + std::string(30000, ')');
  const NetlistError e = error_of("deep\nR1 a 0 {" + deep + "}\n.end\n");
  EXPECT_EQ(e.location(), "<deck>:2:8");
  const std::string tail = "': expression nested deeper than 1000 levels";
  ASSERT_GE(e.message().size(), tail.size());
  EXPECT_EQ(e.message().substr(e.message().size() - tail.size()), tail);
}

TEST(Elaborate, PortsClassifyLikeAByNameMap) {
  const Deck deck = parse_netlist(R"(port classification
.global vdd!
* duplicate port name: the last one wins
.subckt dup a a b
R1 a b 1k
.ends
* a port named like a ground alias is ground
.subckt gp gnd x
R1 gnd x 1k
.ends
* a port that is also .global: the port wins
.subckt gl vdd! x
R1 vdd! x 1k
.ends
* body references fold case onto the ports
.subckt mc IN out
R1 In OUT 1k
.ends
X1 n1 n2 n3 dup
X2 n4 n5 gp
X3 n6 n7 gl
X4 P Q mc
V1 n1 0 1
.end
)");
  const spice::Circuit& c = *deck.circuit;
  auto id = [&](const char* name) { return c.find_node(name).value_or(-2); };
  EXPECT_EQ(ends_of(c, "x1.r1"), std::make_pair(id("n2"), id("n3")));
  EXPECT_EQ(ends_of(c, "x2.r1"), std::make_pair(spice::kGround, id("n5")));
  EXPECT_FALSE(c.find_node("n4").has_value());  // an unused port creates nothing
  EXPECT_EQ(ends_of(c, "x3.r1"), std::make_pair(id("n6"), id("n7")));
  EXPECT_FALSE(c.find_node("vdd!").has_value());
  EXPECT_EQ(ends_of(c, "x4.r1"), std::make_pair(id("p"), id("q")));
  EXPECT_FALSE(c.find_node("x4.in").has_value());
}

}  // namespace
}  // namespace sscl::netlist
