// Tests for the interprocedural dataflow passes and the pass manager:
// bias-current provenance (the paper's one-knob IB property, verified
// on STSCL counter/ADC decks), voltage-domain inference, constant and
// dead-net folding through the simulator's gate models, transitive
// phase-domain races — plus dependency-respecting scheduling and the
// byte-identical-at-any-jobs determinism contract.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "digital/netlist.hpp"
#include "lint/check.hpp"
#include "lint/pass.hpp"
#include "lint/rule.hpp"
#include "netlist/netlist.hpp"

namespace sscl::lint {
namespace {

const Diagnostic* find_diag(const Report& r, const std::string& rule) {
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

int count_diag(const Report& r, const std::string& rule) {
  int n = 0;
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.rule == rule) ++n;
  }
  return n;
}

/// Warnings emitted by one rule. The provenance tests use deliberately
/// toy decks (pA tails into Mohm loads) that the op-region pass rightly
/// flags for swing, so they scope their clean-run asserts to their rule.
int count_rule_warnings(const Report& r, const std::string& rule) {
  int n = 0;
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.rule == rule && d.severity == Severity::kWarning) ++n;
  }
  return n;
}

Report lint_deck(const std::string& text, const Options& options = {}) {
  netlist::ParseOptions strict;
  strict.strict = true;
  const netlist::Deck deck = netlist::parse_netlist(text, strict);
  return check_circuit(*deck.circuit, options);
}

// ---- bias-current provenance -----------------------------------------

constexpr const char* kMirrorDeck = R"(
* one IB root, diode master MB, 2x mirror slave MT feeding the pair tail
Vdd vdd 0 1.0
Ib vdd vbn 100p
MB vbn vbn 0 0 nmos_hvt W=2u L=1u
Vip inp 0 0.55
Vin inn 0 0.45
Rl1 vdd outp 10meg
Rl2 vdd outn 10meg
M1 outp inp tail 0 nmos_hvt W=2u L=1u
M2 outn inn tail 0 nmos_hvt W=2u L=1u
MT tail vbn 0 0 nmos_hvt W=4u L=1u
.op
.end
)";

TEST(BiasProvenance, MirrorBiasedTailTraces) {
  const Report r = lint_deck(kMirrorDeck);
  EXPECT_EQ(count_rule_warnings(r, "bias-provenance"), 0) << r.text();
  const Diagnostic* d = find_diag(r, "bias-provenance");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kInfo);
  EXPECT_NE(d->message.find("one-knob property holds"), std::string::npos)
      << d->message;
}

TEST(BiasProvenance, OrphanTailFlagged) {
  const Report r = lint_deck(R"(
* resistor-biased tail: satisfies unbiased-tail but has no IB root
Vdd vdd 0 1.0
Vip inp 0 0.55
Vin inn 0 0.45
Rl1 vdd outp 10meg
Rl2 vdd outn 10meg
M1 outp inp tail 0 nmos_hvt W=2u L=1u
M2 outn inn tail 0 nmos_hvt W=2u L=1u
Rt tail 0 5meg
.op
.end
)");
  EXPECT_EQ(count_diag(r, "unbiased-tail"), 0) << r.text();
  const Diagnostic* d = find_diag(r, "bias-provenance");
  ASSERT_NE(d, nullptr) << r.text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->location, "tail");
  EXPECT_FALSE(d->fix.empty());
}

TEST(BiasProvenance, MirrorRatioBudget) {
  // 100 pA root + 2x mirrored slave = 300 pA estimated total.
  Options over;
  over.bias_budget = 150e-12;
  const Report flagged = lint_deck(kMirrorDeck, over);
  const Diagnostic* d = find_diag(flagged, "bias-provenance");
  ASSERT_NE(d, nullptr);
  bool has_budget_warning = false;
  for (const Diagnostic& diag : flagged.diagnostics()) {
    if (diag.rule == "bias-provenance" &&
        diag.severity == Severity::kWarning) {
      has_budget_warning = true;
      EXPECT_NE(diag.message.find("exceeds the declared budget"),
                std::string::npos)
          << diag.message;
      EXPECT_NE(diag.message.find("MT"), std::string::npos) << diag.message;
    }
  }
  EXPECT_TRUE(has_budget_warning) << flagged.text();

  Options under;
  under.bias_budget = 1e-9;
  const Report clean = lint_deck(kMirrorDeck, under);
  EXPECT_EQ(count_rule_warnings(clean, "bias-provenance"), 0) << clean.text();
}

TEST(BiasProvenance, OneKnobHoldsOnCounterAndAdcDecks) {
  const char* decks[] = {
      // STSCL counter slice: one IB programs both latch-rank tails.
      R"(
Vdd vdd 0 1.0
Ib vdd vbn 100p
MB vbn vbn 0 0 nmos_hvt W=2u L=1u
Vca clka 0 0.55
Vcb clkb 0 0.45
Rl1 vdd q1p 10meg
Rl2 vdd q1n 10meg
M1 q1p clka t1 0 nmos_hvt W=2u L=1u
M2 q1n clkb t1 0 nmos_hvt W=2u L=1u
MT1 t1 vbn 0 0 nmos_hvt W=2u L=1u
Rl3 vdd q2p 10meg
Rl4 vdd q2n 10meg
M3 q2p q1p t2 0 nmos_hvt W=2u L=1u
M4 q2n q1n t2 0 nmos_hvt W=2u L=1u
MT2 t2 vbn 0 0 nmos_hvt W=2u L=1u
.op
.end
)",
      // Flash-ADC front end: ladder plus two preamps off one IB.
      R"(
Vdd vdd 0 1.0
Vin vin 0 0.5
Ib vdd vbn 200p
MB vbn vbn 0 0 nmos_hvt W=2u L=1u
R1 vdd r1 1meg
R2 r1 r2 1meg
R3 r2 0 1meg
Ra1 vdd a1p 10meg
Ra2 vdd a1n 10meg
M1 a1p vin ta1 0 nmos_hvt W=2u L=1u
M2 a1n r1 ta1 0 nmos_hvt W=2u L=1u
MT1 ta1 vbn 0 0 nmos_hvt W=2u L=1u
Rb1 vdd a2p 10meg
Rb2 vdd a2n 10meg
M3 a2p vin ta2 0 nmos_hvt W=2u L=1u
M4 a2n r2 ta2 0 nmos_hvt W=2u L=1u
MT2 ta2 vbn 0 0 nmos_hvt W=2u L=1u
.op
.end
)"};
  for (const char* deck : decks) {
    const Report r = lint_deck(deck);
    EXPECT_EQ(count_rule_warnings(r, "bias-provenance"), 0) << r.text();
    const Diagnostic* d = find_diag(r, "bias-provenance");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("all 2 source-coupled tail(s)"),
              std::string::npos)
        << d->message;
  }
}

// ---- voltage-domain inference ----------------------------------------

TEST(DomainCrossing, UnshiftedCrossingFlagged) {
  const Report r = lint_deck(R"(
Vdd vdd 0 0.5
Vddh vddh 0 1.0
Vbias inb 0 0.3
Rl vdd lo 1meg
M1 lo inb 0 0 nmos_hvt W=2u L=1u
Rh vddh out 1meg
M2 out lo 0 0 nmos_hvt W=2u L=1u
.op
.end
)");
  const Diagnostic* d = find_diag(r, "domain-crossing");
  ASSERT_NE(d, nullptr) << r.text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->location, "M2");
  EXPECT_NE(d->message.find("Vdd"), std::string::npos);
  EXPECT_NE(d->message.find("Vddh"), std::string::npos);
}

TEST(DomainCrossing, LevelShifterNameExempt) {
  const Report r = lint_deck(R"(
Vdd vdd 0 0.5
Vddh vddh 0 1.0
Vbias inb 0 0.3
Rl vdd lo 1meg
M1 lo inb 0 0 nmos_hvt W=2u L=1u
Rh vddh hi 1meg
MLS1 hi lo 0 0 nmos_hvt W=2u L=1u
Rh2 vddh out 1meg
M2 out hi 0 0 nmos_hvt W=2u L=1u
.op
.end
)");
  EXPECT_EQ(count_diag(r, "domain-crossing"), 0) << r.text();
  EXPECT_EQ(r.count(Severity::kWarning), 0) << r.text();
}

TEST(DomainCrossing, BridgedRailsFlagged) {
  const Report r = lint_deck(R"(
Vdd vdd 0 1.0
Vdda avdd 0 1.0
Rbridge vdd avdd 1k
Rload vdd 0 1meg
Rload2 avdd 0 1meg
.op
.end
)");
  const Diagnostic* d = find_diag(r, "domain-crossing");
  ASSERT_NE(d, nullptr) << r.text();
  EXPECT_NE(d->message.find("conductively connected"), std::string::npos);
}

TEST(DomainCrossing, SingleSupplyStaysSilent) {
  const Report r = lint_deck(R"(
Vdd vdd 0 1.0
R1 vdd mid 1k
R2 mid 0 1k
.op
.end
)");
  EXPECT_EQ(count_diag(r, "domain-crossing"), 0) << r.text();
}

// ---- constant & dead-net propagation ---------------------------------

TEST(ConstNet, SharedInputIdentitiesFold) {
  digital::Netlist nl;
  const auto a = nl.input("a");
  nl.xor2(a, a, "gx");                       // x ^ x == 0
  nl.and2(a, ~digital::Ref(a), "ga");        // x & ~x == 0
  nl.mux2(nl.input("s"), a, a, "gm");        // mux(s, a, a) == a: not const
  const Report r = check_netlist(nl);
  EXPECT_EQ(count_diag(r, "const-net"), 2) << r.text();
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.rule != "const-net") continue;
    EXPECT_NE(d.message.find("constant 0"), std::string::npos) << d.message;
  }
}

TEST(ConstNet, ConstantsPropagateThroughGateModels) {
  digital::Netlist nl;
  const auto a = nl.input("a");
  const auto zero = nl.xor2(a, a, "gzero");        // 0
  const auto one = nl.or2(zero, ~digital::Ref(zero), "gone");  // 1
  nl.and2(one, a, "gand");  // 1 & a == a: non-constant
  const Report r = check_netlist(nl);
  EXPECT_EQ(count_diag(r, "const-net"), 2) << r.text();
  const Diagnostic* d = find_diag(r, "const-net");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->fix.empty());
}

TEST(ConstNet, DeadConeBehindConstantFlagged) {
  digital::Netlist nl;
  const auto a = nl.input("a");
  const auto feeder = nl.buf(a, "gfeeder");
  nl.xor2(feeder, feeder, "gconst");  // const 0, only consumer of feeder
  nl.buf(a, "gout");                  // live block output
  const Report r = check_netlist(nl);
  EXPECT_EQ(count_diag(r, "const-net"), 1) << r.text();
  const Diagnostic* dead = find_diag(r, "dead-net");
  ASSERT_NE(dead, nullptr) << r.text();
  EXPECT_EQ(dead->location, "gfeeder");
}

TEST(ConstNet, CleanLogicStaysSilent) {
  digital::Netlist nl;
  const auto a = nl.input("a");
  const auto b = nl.input("b");
  const auto x = nl.xor2(a, b, "gx");
  nl.and2(x, a, "gand");
  const Report r = check_netlist(nl);
  EXPECT_EQ(count_diag(r, "const-net"), 0) << r.text();
  EXPECT_EQ(count_diag(r, "dead-net"), 0) << r.text();
}

// ---- phase-domain checking -------------------------------------------

TEST(PhaseDomain, TransitiveSamePhaseRaceFlagged) {
  digital::Netlist nl;
  nl.clock();
  const auto d = nl.input("d");
  const auto l1 = nl.latch(d, true, "l1");
  const auto b = nl.buf(l1, "b");
  nl.latch(b, true, "l2");  // same phase, through combinational logic
  const Report r = check_netlist(nl);
  // The direct rule must NOT fire (no latch drives l2 directly)...
  EXPECT_EQ(count_diag(r, "latch-phase"), 0) << r.text();
  // ...but the whole-pipeline colouring must.
  const Diagnostic* diag = find_diag(r, "phase-domain");
  ASSERT_NE(diag, nullptr) << r.text();
  EXPECT_EQ(diag->location, "l2");
}

TEST(PhaseDomain, DirectRaceLeftToLatchPhaseRule) {
  digital::Netlist nl;
  nl.clock();
  const auto d = nl.input("d");
  const auto l1 = nl.latch(d, true, "l1");
  nl.latch(l1, true, "l2");  // direct: the local rule owns this
  const Report r = check_netlist(nl);
  EXPECT_EQ(count_diag(r, "latch-phase"), 1) << r.text();
  EXPECT_EQ(count_diag(r, "phase-domain"), 0) << r.text();
}

TEST(PhaseDomain, AlternatingPipelineClean) {
  digital::Netlist nl;
  nl.clock();
  const auto d = nl.input("d");
  const auto l1 = nl.latch(d, true, "l1");
  const auto b1 = nl.buf(l1, "b1");
  const auto l2 = nl.latch(b1, false, "l2");
  const auto b2 = nl.buf(l2, "b2");
  nl.latch(b2, true, "l3");
  const Report r = check_netlist(nl);
  EXPECT_EQ(count_diag(r, "phase-domain"), 0) << r.text();
  EXPECT_EQ(count_diag(r, "latch-phase"), 0) << r.text();
}

// ---- pass manager ----------------------------------------------------

TEST(PassManager, WavesRespectDependencies) {
  PassManager manager(make_default_passes());
  std::vector<int> all;
  for (int i = 0; i < static_cast<int>(manager.passes().size()); ++i) {
    all.push_back(i);
  }
  const auto waves = manager.schedule(all);
  ASSERT_GE(waves.size(), 2u);  // the dataflow passes depend on DRC rules

  std::vector<int> wave_of(manager.passes().size(), -1);
  for (int w = 0; w < static_cast<int>(waves.size()); ++w) {
    for (const int pi : waves[w]) wave_of[pi] = w;
  }
  for (const int pi : all) {
    EXPECT_GE(wave_of[pi], 0);
    for (const char* dep : manager.passes()[pi]->depends_on()) {
      for (const int di : all) {
        if (std::string(manager.passes()[di]->id()) == dep) {
          EXPECT_LT(wave_of[di], wave_of[pi])
              << manager.passes()[pi]->id() << " must run after " << dep;
        }
      }
    }
  }
}

TEST(PassManager, OnlySelectionFilters) {
  Options options;
  options.only = {"element-value"};
  const Report r = lint_deck(kMirrorDeck, options);
  for (const Diagnostic& d : r.diagnostics()) {
    EXPECT_EQ(d.rule, "element-value") << d.rule;
  }
}

TEST(PassManager, ReportBytesIdenticalAtAnyJobs) {
  const char* deck = R"(
Vdd vdd 0 0.5
Vddh vddh 0 1.0
Vbias inb 0 0.3
Rl vdd lo 1meg
M1 lo inb 0 0 nmos_hvt W=2u L=1u
Rh vddh out 1meg
M2 out lo 0 0 nmos_hvt W=2u L=1u
Mp outp lo tail 0 nmos_hvt W=2u L=1u
Mn outn inb tail 0 nmos_hvt W=2u L=1u
Rp vdd outp 10meg
Rn vdd outn 10meg
Rt tail 0 5meg
.op
.end
)";
  Options serial;
  serial.jobs = 1;
  Options parallel;
  parallel.jobs = 8;
  const std::string a = lint_deck(deck, serial).text();
  const std::string b = lint_deck(deck, parallel).text();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace sscl::lint
