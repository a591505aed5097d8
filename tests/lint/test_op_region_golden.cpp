// The op-region golden: every interval analyze_op_region publishes
// (node voltages, branch currents, device and pair regions, sweep count,
// contradiction flag) for every committed lint deck, every example deck
// and copies of perfbench's seed-1 STSCL decks, over the nominal box and
// T = [0, 85] degC x VDD +-10%, compared as %a text. A change that only
// makes the analysis faster must keep every bit.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "op_region_golden.hpp"

namespace sscl::lint {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// The golden's lines for one box: every deck block whose header names it.
std::vector<std::string> golden_lines(const std::string& box) {
  std::ifstream in(std::string(SSCL_LINT_GOLDEN_DIR) + "/op_region.golden");
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot open op_region.golden";
  const std::string suffix = " box " + box;
  std::vector<std::string> out;
  bool keep = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("deck ", 0) == 0) {
      keep = line.size() >= suffix.size() &&
             line.compare(line.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    }
    if (keep) out.push_back(line);
  }
  return out;
}

void expect_box_matches(const golden::GoldenBox& box) {
  const std::vector<std::string> want = golden_lines(box.label);
  ASSERT_FALSE(want.empty()) << "no golden block for box " << box.label;
  std::size_t at = 0;
  for (const golden::GoldenDeck& deck : golden::golden_decks()) {
    const std::vector<std::string> got =
        lines_of(golden::golden_text(deck, box));
    for (const std::string& line : got) {
      ASSERT_LT(at, want.size()) << deck.file << ": golden ends early";
      ASSERT_EQ(line, want[at]) << deck.file << " (golden line " << at << ")";
      ++at;
    }
  }
  EXPECT_EQ(at, want.size()) << "golden has lines for decks not analysed";
}

TEST(OpRegionGolden, NominalBoxMatchesBitForBit) {
  expect_box_matches(golden::golden_boxes()[0]);
}

TEST(OpRegionGolden, HotColdSupplyBoxMatchesBitForBit) {
  expect_box_matches(golden::golden_boxes()[1]);
}

// ---- cost counters on the seed-1 50-gate fabric, nominal box ----------

OpRegionStats fabric_stats() {
  const auto circuit = golden::load_circuit(
      {std::string(SSCL_LINT_GOLDEN_DIR) + "/decks", "stscl_fabric_50.sp"});
  const CircuitView view(*circuit);
  const AnalysisIR ir = AnalysisIR::build(view);
  return analyze_op_region(view, ir, OpRegionOptions{}).stats;
}

TEST(OpRegionCost, FabricKclBisectionStopsAtAdjacentDoubles) {
  // 1,978 KCL bisections; the full 60-step budget is 118,680 steps.
  // 20,273 of those ran on a bracket already collapsed to two adjacent
  // doubles, where every step rewrites an end with itself.
  EXPECT_EQ(fabric_stats().kcl_steps, 98407);
}

TEST(OpRegionCost, FabricLintComputesAtMost700kFEndpoints) {
  // Four per interval evaluation without the per-device card and term
  // reuse: 1,212,372.
  const OpRegionStats st = fabric_stats();
  std::printf("ekv_f endpoints %lld, KCL steps %lld, swing steps %lld\n",
              st.ekv_f_evals, st.kcl_steps, st.swing_steps);
  EXPECT_LE(st.ekv_f_evals, 700000);
}

}  // namespace
}  // namespace sscl::lint
