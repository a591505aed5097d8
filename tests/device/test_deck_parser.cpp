#include <gtest/gtest.h>

#include <string>

#include "netlist/netlist.hpp"
#include "spice/ac.hpp"
#include "spice/engine.hpp"
#include "spice/transient.hpp"

namespace sscl::device {
namespace {

using netlist::AnalysisCard;
using netlist::NetlistError;

netlist::Deck parse_strict(const std::string& text) {
  netlist::ParseOptions options;
  options.strict = true;
  return netlist::parse_netlist(text, options);
}

TEST(DeckParser, TitleAndDivider) {
  const auto deck = parse_strict(R"(simple divider
V1 in 0 2.0
R1 in mid 1k
R2 mid 0 1k
.op
.end
)");
  EXPECT_EQ(deck.title, "simple divider");
  ASSERT_EQ(deck.analyses.size(), 1u);
  EXPECT_EQ(deck.analyses[0].kind, AnalysisCard::Kind::kOp);

  spice::Engine engine(*deck.circuit);
  const spice::Solution op = engine.solve_op();
  EXPECT_NEAR(op.v(*deck.circuit->find_node("mid")), 1.0, 1e-6);
}

TEST(DeckParser, CommentsAndContinuations) {
  const auto deck = parse_strict(R"(* full-line comment
V1 in 0
+ DC 1.5   $ end-of-line comment
R1 in 0 3k ; another comment style
)");
  spice::Engine engine(*deck.circuit);
  const spice::Solution op = engine.solve_op();
  EXPECT_NEAR(op.v(*deck.circuit->find_node("in")), 1.5, 1e-9);
}

TEST(DeckParser, EngineeringSuffixes) {
  const auto deck = parse_strict(R"(suffixes
I1 0 n1 2u
R1 n1 0 1meg
)");
  spice::Engine engine(*deck.circuit);
  const spice::Solution op = engine.solve_op();
  EXPECT_NEAR(op.v(*deck.circuit->find_node("n1")), 2.0, 1e-6);
}

TEST(DeckParser, PulseSourceAndTran) {
  const auto deck = parse_strict(R"(rc step
V1 in 0 PULSE(0 1 1u 10n 10n 1m)
R1 in out 1k
C1 out 0 1n
.tran 10n 6u
)");
  ASSERT_EQ(deck.analyses.size(), 1u);
  EXPECT_EQ(deck.analyses[0].kind, AnalysisCard::Kind::kTran);
  EXPECT_NEAR(deck.analyses[0].tstop, 6e-6, 1e-12);

  spice::Engine engine(*deck.circuit);
  spice::TransientOptions opts;
  opts.tstop = deck.analyses[0].tstop;
  const spice::Waveform w = run_transient(engine, opts);
  const spice::NodeId out = *deck.circuit->find_node("out");
  EXPECT_NEAR(w.final_value(out), 1.0 - std::exp(-5.0 + 1.0), 0.05);
}

TEST(DeckParser, AcCardAndSource) {
  const auto deck = parse_strict(R"(ac test
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 1n
.ac dec 10 1k 10meg
)");
  ASSERT_EQ(deck.analyses.size(), 1u);
  const AnalysisCard& a = deck.analyses[0];
  EXPECT_EQ(a.kind, AnalysisCard::Kind::kAc);
  EXPECT_EQ(a.points_per_decade, 10);
  EXPECT_NEAR(a.f_stop, 10e6, 1.0);

  spice::Engine engine(*deck.circuit);
  spice::AcResult res = run_ac_decade(engine, a.f_start, a.f_stop,
                                      a.points_per_decade);
  const spice::NodeId out = *deck.circuit->find_node("out");
  EXPECT_NEAR(res.bandwidth_3db(out), 1.0 / (2 * M_PI * 1e-6), 0.1e6);
}

TEST(DeckParser, MosfetWithBuiltinModel) {
  // Diode-connected NMOS pulled by 1 nA: VGS in the subthreshold range.
  const auto deck = parse_strict(R"(mos test
Vdd vdd 0 1.2
Ib vdd g 1n
M1 g g 0 0 nmos W=2u L=1u
)");
  spice::Engine engine(*deck.circuit);
  const spice::Solution op = engine.solve_op();
  const double vg = op.v(*deck.circuit->find_node("g"));
  EXPECT_GT(vg, 0.15);
  EXPECT_LT(vg, 0.45);
}

TEST(DeckParser, CustomModelCard) {
  const auto deck = parse_strict(R"(custom model
.model hot NMOS (VT0=0.3 KP=500u N=1.2)
Vdd vdd 0 1.2
Ib vdd g 1n
M1 g g 0 0 hot W=2u L=1u
)");
  spice::Engine engine(*deck.circuit);
  const spice::Solution op = engine.solve_op();
  // Lower VT0 -> lower VGS at the same current than the builtin card.
  EXPECT_LT(op.v(*deck.circuit->find_node("g")), 0.30);
}

TEST(DeckParser, DiodeElement) {
  const auto deck = parse_strict(R"(diode test
V1 in 0 1.0
R1 in a 1k
D1 a 0 d
)");
  spice::Engine engine(*deck.circuit);
  const spice::Solution op = engine.solve_op();
  const double va = op.v(*deck.circuit->find_node("a"));
  EXPECT_GT(va, 0.4);
  EXPECT_LT(va, 0.8);
}

TEST(DeckParser, ControlledSources) {
  const auto deck = parse_strict(R"(controlled
V1 in 0 0.1
E1 out 0 in 0 10
R1 out 0 1k
G1 0 i1 in 0 1m
R2 i1 0 1k
)");
  spice::Engine engine(*deck.circuit);
  const spice::Solution op = engine.solve_op();
  EXPECT_NEAR(op.v(*deck.circuit->find_node("out")), 1.0, 1e-6);
  EXPECT_NEAR(op.v(*deck.circuit->find_node("i1")), 0.1, 1e-6);
}

TEST(DeckParser, SubcktExpansion) {
  const auto deck = parse_strict(R"(hierarchy
.subckt divider top mid bot
R1 top mid 1k
R2 mid bot 1k
.ends
V1 in 0 2.0
X1 in m1 0 divider
X2 m1 m2 0 divider
)");
  spice::Engine engine(*deck.circuit);
  const spice::Solution op = engine.solve_op();
  // X1: divider from 2V to 0 with its midpoint loaded by X2 (2k to gnd
  // through another divider whose mid is m2).
  const double m1 = op.v(*deck.circuit->find_node("m1"));
  EXPECT_NEAR(m1, 2.0 * (2.0 / 3.0) / (1 + 2.0 / 3.0), 1e-3);
  const double m2 = op.v(*deck.circuit->find_node("m2"));
  EXPECT_NEAR(m2, m1 / 2, 1e-6);
  // Internal nodes are namespaced, not merged.
  EXPECT_FALSE(deck.circuit->find_node("mid").has_value());
}

TEST(DeckParser, NestedSubckt) {
  const auto deck = parse_strict(R"(nested
.subckt half a b
R1 a b 1k
.ends
.subckt full top bot
X1 top m half
X2 m bot half
.ends
V1 in 0 1.0
Xmain in 0 full
)");
  spice::Engine engine(*deck.circuit);
  const spice::Solution op = engine.solve_op();
  const auto mid = deck.circuit->find_node("xmain.m");
  ASSERT_TRUE(mid.has_value());
  EXPECT_NEAR(op.v(*mid), 0.5, 1e-6);
}

TEST(DeckParser, DcSweepCard) {
  const auto deck = parse_strict(R"(sweep
V1 in 0 0
R1 in 0 1k
.dc V1 0 1 0.1
)");
  ASSERT_EQ(deck.analyses.size(), 1u);
  const AnalysisCard& a = deck.analyses[0];
  EXPECT_EQ(a.kind, AnalysisCard::Kind::kDc);
  EXPECT_EQ(a.sweep_source, "V1");
  EXPECT_NEAR(a.sweep_step, 0.1, 1e-12);
}

TEST(DeckParser, ErrorsCarryLineNumbers) {
  try {
    parse_strict("title\nR1 a 0 oops\n");
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    EXPECT_EQ(e.loc().line, 2);
  }
  EXPECT_THROW(parse_strict("title\nQ1 a b c\n"), NetlistError);      // element
  EXPECT_THROW(parse_strict("title\nM1 d g s b nope\n"), NetlistError);  // model
  EXPECT_THROW(parse_strict("title\nX1 a b ghost\n"), NetlistError);  // subckt
  EXPECT_THROW(parse_strict("title\n.weird\n"), NetlistError);        // card
  EXPECT_THROW(parse_strict(""), NetlistError);                       // empty
}

TEST(DeckParser, StsclInverterDeckEndToEnd) {
  // A realistic mini-deck: current-mirror-biased STSCL buffer stage.
  const auto deck = parse_strict(R"(stscl cell from a deck
Vdd vdd 0 1.0
Ib vdd vbn 1n
MB vbn vbn 0 0 nmos_hvt W=2u L=1u
MT tail vbn 0 0 nmos_hvt W=2u L=1u
M1 outn inp tail 0 nmos W=1u L=0.5u
M2 outp inn tail 0 nmos W=1u L=0.5u
* resistor loads stand in for the replica-biased PMOS here
RLp vdd outp 200meg
RLn vdd outn 200meg
Vip inp 0 1.0
Vin inn 0 0.8
.op
)");
  spice::Engine engine(*deck.circuit);
  const spice::Solution op = engine.solve_op();
  const double swing = op.v(*deck.circuit->find_node("outp")) -
                       op.v(*deck.circuit->find_node("outn"));
  EXPECT_GT(swing, 0.1);
  EXPECT_LT(swing, 0.3);
}

}  // namespace
}  // namespace sscl::device
