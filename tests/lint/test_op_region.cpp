// Tests for the op-region interval abstract interpreter and its lint
// pass: certification of the committed STSCL decks (the paper's buffer
// cell must certify weak inversion, swing and VDD,min at the nominal
// corner), the three-way certified/violated/unproven verdicts, the
// supply-rail pair exclusion in the IR, pass-fact plumbing into the
// migrated weak-inversion rule, and byte-identical SARIF at any job
// count with the op-region pass enabled.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/check.hpp"
#include "lint/circuit_view.hpp"
#include "lint/ir.hpp"
#include "lint/op_region.hpp"
#include "lint/rule.hpp"
#include "lint/sarif.hpp"
#include "netlist/netlist.hpp"
#include "spice/engine.hpp"

namespace sscl::lint {
namespace {

std::string read_deck_file(const std::string& name) {
  const std::string path = std::string(SSCL_LINT_DECK_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

netlist::Deck parse_strict(const std::string& text) {
  netlist::ParseOptions options;
  options.strict = true;
  return netlist::parse_netlist(text, options);
}

Report lint_deck(const std::string& text, const Options& options = {}) {
  const netlist::Deck deck = parse_strict(text);
  return check_circuit(*deck.circuit, options);
}

std::vector<const Diagnostic*> diags_of(const Report& r,
                                        const std::string& rule) {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.rule == rule) out.push_back(&d);
  }
  return out;
}

bool has_certified(const Report& r, const std::string& rule,
                   const std::string& where) {
  for (const Diagnostic* d : diags_of(r, rule)) {
    if (d->location == where && d->severity == Severity::kInfo &&
        d->message.rfind("certified:", 0) == 0) {
      return true;
    }
  }
  return false;
}

// ---- acceptance: the paper's buffer cell certifies at nominal --------

TEST(OpRegionPass, BufferDeckCertifiesWeakInversionSwingVddminAtNominal) {
  const Report r = lint_deck(read_deck_file("good_stscl_buffer.sp"));
  EXPECT_EQ(r.error_count(), 0);
  EXPECT_EQ(r.count(Severity::kWarning), 0) << r.text();

  EXPECT_TRUE(has_certified(r, "op-region-weak-inversion", "M1")) << r.text();
  EXPECT_TRUE(has_certified(r, "op-region-weak-inversion", "M2"));
  EXPECT_TRUE(has_certified(r, "op-region-weak-inversion", "Mt"));
  EXPECT_TRUE(has_certified(r, "op-region-swing", "tail"));
  EXPECT_TRUE(has_certified(r, "op-region-vddmin", "tail"));
  // The bulk-drain-shorted PMOS loads certify via the resistor-like
  // weak-inversion criterion, not the classic triode test.
  EXPECT_TRUE(has_certified(r, "op-region-triode", "tail"));
}

TEST(OpRegionPass, PairDeckCertifiesOverPvtBox) {
  Options options;
  options.t_lo_k = 273.15;        // 0 C
  options.t_hi_k = 273.15 + 85.0; // 85 C
  options.vdd_tol = 0.10;
  const Report r =
      lint_deck(read_deck_file("good_stscl_pair.sp"), options);
  EXPECT_EQ(r.error_count(), 0);
  EXPECT_EQ(r.count(Severity::kWarning), 0) << r.text();
  EXPECT_TRUE(has_certified(r, "op-region-weak-inversion", "M1"));
  EXPECT_TRUE(has_certified(r, "op-region-swing", "tail"));
  EXPECT_TRUE(has_certified(r, "op-region-vddmin", "tail"));
}

// ---- three-way verdicts ----------------------------------------------

TEST(OpRegionPass, UndersizedSwingIsViolatedNotUnproven) {
  // 100 pA into 1 Mohm = 0.1 mV of swing: provably below 4 n UT, so
  // the verdict must be "violated" (the intervals refute the property),
  // not "unproven" (too wide to decide).
  const Report r = lint_deck(R"(
Vdd vdd 0 1.0
Vip inp 0 0.55
Vin inn 0 0.45
Rl1 vdd outp 1meg
Rl2 vdd outn 1meg
M1 outp inp tail 0 nmos W=2u L=0.5u
M2 outn inn tail 0 nmos W=2u L=0.5u
Iss tail 0 100p
.op
.end
)");
  bool violated = false;
  for (const Diagnostic* d : diags_of(r, "op-region-swing")) {
    violated = violated || (d->severity == Severity::kWarning &&
                            d->message.rfind("violated:", 0) == 0);
  }
  EXPECT_TRUE(violated) << r.text();
}

TEST(OpRegionPass, StrongInversionPairIsFlagged) {
  // 100 uA through a 2u/0.5u pair is far above IC = 10: weak inversion
  // must come back violated.
  const Report r = lint_deck(R"(
Vdd vdd 0 1.0
Vip inp 0 0.95
Vin inn 0 0.90
Rl1 vdd outp 1k
Rl2 vdd outn 1k
M1 outp inp tail 0 nmos W=2u L=0.5u
M2 outn inn tail 0 nmos W=2u L=0.5u
Iss tail 0 100u
.op
.end
)");
  bool flagged = false;
  for (const Diagnostic* d : diags_of(r, "op-region-weak-inversion")) {
    flagged = flagged || d->severity == Severity::kWarning;
  }
  EXPECT_TRUE(flagged) << r.text();
}

// ---- analyzer-level properties ---------------------------------------

TEST(OpRegionAnalysis, BufferIntervalsContainTheDcSolution) {
  const std::string text = read_deck_file("good_stscl_buffer.sp");
  netlist::Deck deck = parse_strict(text);
  const CircuitView view(*deck.circuit);
  const AnalysisIR ir = AnalysisIR::build(view);
  const OpRegionResult result = analyze_op_region(view, ir, OpRegionOptions{});
  EXPECT_FALSE(result.contradiction);

  spice::Engine engine(*deck.circuit);
  const spice::Solution sol = engine.solve_op();
  for (int s = 1; s < view.slot_count(); ++s) {
    const spice::NodeId n = view.node_of_slot(s);
    EXPECT_TRUE(result.node_v[s].pad(1e-3).contains(sol.v(n)))
        << view.node_label(n) << " = " << sol.v(n) << " outside ["
        << result.node_v[s].lo << ", " << result.node_v[s].hi << "]";
  }
  // The analysis is tight on this deck: every node is bounded.
  for (int s = 1; s < view.slot_count(); ++s) {
    EXPECT_TRUE(result.node_v[s].is_bounded())
        << view.node_label(view.node_of_slot(s));
  }
}

TEST(OpRegionAnalysis, WideningTheBoxKeepsNominalInside) {
  // Inclusion isotonicity end to end: the PVT-box result contains the
  // nominal-corner result wherever both are defined.
  const std::string text = read_deck_file("good_stscl_pair.sp");
  netlist::Deck deck = parse_strict(text);
  const CircuitView view(*deck.circuit);
  const AnalysisIR ir = AnalysisIR::build(view);
  const OpRegionResult nominal =
      analyze_op_region(view, ir, OpRegionOptions{});
  OpRegionOptions box;
  box.t_lo_k = 273.15;
  box.t_hi_k = 273.15 + 85.0;
  box.vdd_tol = 0.10;
  const OpRegionResult wide = analyze_op_region(view, ir, box);
  for (int s = 1; s < view.slot_count(); ++s) {
    EXPECT_TRUE(wide.node_v[s].pad(1e-9).contains(nominal.node_v[s]))
        << view.node_label(view.node_of_slot(s));
  }
}

TEST(AnalysisIr, SupplyRailCommonSourceGroupIsNotAPair) {
  // The two PMOS loads of the buffer share their source at vdd; they
  // must not be reported as a source-coupled pair (there is no tail).
  const std::string text = read_deck_file("good_stscl_buffer.sp");
  netlist::Deck deck = parse_strict(text);
  const CircuitView view(*deck.circuit);
  const AnalysisIR ir = AnalysisIR::build(view);
  ASSERT_EQ(ir.pairs.size(), 1u);
  EXPECT_TRUE(ir.pairs[0].is_nmos);
  EXPECT_EQ(ir.pairs[0].devices.size(), 2u);
}

// ---- pass-fact plumbing ----------------------------------------------

TEST(OpRegionPass, WeakInversionRuleConsumesIntervalFacts) {
  // With op-region enabled, tail-bias weak inversion reports through
  // the interval path; with it disabled, the local estimate fallback
  // still fires. Both must flag a strongly-inverted pair.
  const std::string deck = R"(
Vdd vdd 0 1.0
Vip inp 0 0.95
Vin inn 0 0.90
Rl1 vdd outp 1k
Rl2 vdd outn 1k
M1 outp inp tail 0 nmos W=2u L=0.5u
M2 outn inn tail 0 nmos W=2u L=0.5u
Iss tail 0 100u
.op
.end
)";
  const Report with_facts = lint_deck(deck);
  Options no_op_region;
  no_op_region.disabled.push_back("op-region");
  const Report without_facts = lint_deck(deck, no_op_region);
  EXPECT_FALSE(diags_of(with_facts, "weak-inversion-bias").empty());
  EXPECT_FALSE(diags_of(without_facts, "weak-inversion-bias").empty());
  // The interval path reports certified bounds, the fallback an
  // estimate: both flag, neither crashes, and the interval message
  // carries the bound notation.
  bool interval_msg = false;
  for (const Diagnostic* d : diags_of(with_facts, "weak-inversion-bias")) {
    interval_msg = interval_msg || d->message.find('[') != std::string::npos;
  }
  EXPECT_TRUE(interval_msg);
}

// ---- determinism ------------------------------------------------------

TEST(OpRegionPass, SarifIsByteIdenticalAcrossJobCounts) {
  const std::string text = read_deck_file("good_stscl_buffer.sp");
  const netlist::Deck deck = parse_strict(text);

  const auto run = [&](int jobs) {
    Options options;
    options.jobs = jobs;
    options.t_lo_k = 273.15;
    options.t_hi_k = 273.15 + 85.0;
    options.vdd_tol = 0.10;
    std::vector<ArtifactReport> artifacts;
    artifacts.push_back(
        {"buffer.sp", check_circuit(*deck.circuit, options)});
    return to_sarif(artifacts, SarifOptions{});
  };
  const std::string one = run(1);
  const std::string eight = run(8);
  EXPECT_EQ(one, eight);
  EXPECT_NE(one.find("op-region"), std::string::npos);
}

}  // namespace
}  // namespace sscl::lint
