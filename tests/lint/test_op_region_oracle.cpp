// The op-region soundness oracle: for every committed deck, DC-solve at
// randomized corners inside the declared PVT box and assert that every
// solved node voltage (and independent-vsource branch current) lies
// inside the intervals the static analysis published for that box. This
// is the CI contract backing the "certified" verdicts: if the abstract
// interpreter ever excludes a reachable operating point, this test
// fails before the optimistic diagnostic ships.
//
// Corners combine the four box extremes with seeded-random interior
// points (>= 8 per deck). Supply corners are applied by rewriting the
// supply-named source values in the deck text; temperature corners by
// re-deriving the process with Process::at_temperature — exactly the
// dependences the interval evaluator mirrors. Decks that do not solve
// at a corner (the bad_* decks exist to fail) are skipped there; decks
// with no solvable corner contribute nothing, never a false pass.

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lint/check.hpp"
#include "lint/circuit_view.hpp"
#include "lint/ir.hpp"
#include "lint/op_region.hpp"
#include "netlist/netlist.hpp"
#include "spice/elements.hpp"
#include "spice/engine.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace sscl::lint {
namespace {

namespace fs = std::filesystem;

netlist::Deck parse_strict(const std::string& text,
                           const device::Process& process =
                               device::Process::c180()) {
  netlist::ParseOptions options;
  options.strict = true;
  options.process = process;
  return netlist::parse_netlist(text, options);
}

struct Corner {
  double t_k = 300.15;
  double vdd_scale = 1.0;
};

/// Rewrite the value field of every supply-named voltage-source card.
/// Only plain `Vname node node value` cards are rewritten; anything
/// fancier fails the test (committed decks keep their supplies simple
/// so the oracle stays honest).
std::string scale_supplies(const std::string& text, double scale) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::vector<std::string> tok;
    std::string t;
    while (ls >> t) tok.push_back(t);
    if (!tok.empty() && (tok[0][0] == 'V' || tok[0][0] == 'v') &&
        is_supply_name(tok[0])) {
      EXPECT_EQ(tok.size(), 4u) << "unscalable supply card: " << line;
      const auto value = util::parse_si(tok[3]);
      EXPECT_TRUE(value.has_value()) << line;
      std::ostringstream rewritten;
      rewritten.precision(17);
      rewritten << tok[0] << " " << tok[1] << " " << tok[2] << " "
                << *value * scale;
      out << rewritten.str() << "\n";
    } else {
      out << line << "\n";
    }
  }
  return out.str();
}

std::vector<fs::path> committed_decks() {
  std::vector<fs::path> decks;
  for (const auto& entry : fs::directory_iterator(SSCL_LINT_DECK_DIR)) {
    if (entry.path().extension() == ".sp") decks.push_back(entry.path());
  }
  std::sort(decks.begin(), decks.end());
  return decks;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(OpRegionOracle, EverySolvedCornerLiesInsideTheStaticIntervals) {
  const double t_lo = 273.15;         // 0 C
  const double t_hi = 273.15 + 85.0;  // 85 C
  const double vdd_tol = 0.10;

  const std::vector<fs::path> decks = committed_decks();
  ASSERT_FALSE(decks.empty());

  int solved_corners = 0;
  for (const fs::path& path : decks) {
    SCOPED_TRACE(path.filename().string());
    const std::string text = slurp(path);

    // ---- static intervals over the box (nominal parse) ---------------
    netlist::Deck nominal;
    try {
      nominal = parse_strict(text);
    } catch (const netlist::NetlistError&) {
      continue;  // not this oracle's concern (parser tests cover it)
    }
    const CircuitView view(*nominal.circuit);
    const AnalysisIR ir = AnalysisIR::build(view);
    OpRegionOptions box;
    box.t_lo_k = t_lo;
    box.t_hi_k = t_hi;
    box.vdd_tol = vdd_tol;
    const OpRegionResult result = analyze_op_region(view, ir, box);

    // Node-name -> interval map (corner parses renumber identically,
    // but matching by name keeps the oracle independent of that).
    std::map<std::string, util::Interval> by_name;
    for (int s = 1; s < view.slot_count(); ++s) {
      by_name[view.node_label(view.node_of_slot(s))] = result.node_v[s];
    }
    std::map<std::string, util::Interval> branch_by_name;
    for (int di = 0; di < static_cast<int>(view.devices().size()); ++di) {
      if (!result.branch_i[di].is_empty()) {
        branch_by_name[view.devices()[di].device->name()] =
            result.branch_i[di];
      }
    }

    // ---- corners: 4 extremes + seeded-random interior points ---------
    std::vector<Corner> corners = {{t_lo, 1.0 - vdd_tol},
                                   {t_lo, 1.0 + vdd_tol},
                                   {t_hi, 1.0 - vdd_tol},
                                   {t_hi, 1.0 + vdd_tol}};
    util::Rng rng(0xC0FFEEu);
    while (corners.size() < 10) {
      corners.push_back({rng.uniform(t_lo, t_hi),
                         rng.uniform(1.0 - vdd_tol, 1.0 + vdd_tol)});
    }

    for (const Corner& corner : corners) {
      const std::string corner_text =
          scale_supplies(text, corner.vdd_scale);
      netlist::Deck deck;
      spice::Solution sol;
      try {
        deck = parse_strict(
            corner_text, device::Process::c180().at_temperature(corner.t_k));
        spice::Engine engine(*deck.circuit);
        sol = engine.solve_op();
      } catch (const std::exception&) {
        continue;  // deck does not solve at this corner (bad_* decks)
      }
      ++solved_corners;

      // Newton converges on delta-x, not residual: allow a small pad on
      // top of the engine tolerances before declaring unsoundness.
      const double v_pad = 1e-3;
      for (int n = 0; n < deck.circuit->node_count(); ++n) {
        const std::string& name = deck.circuit->node_name(n);
        const auto it = by_name.find(name);
        ASSERT_NE(it, by_name.end()) << name;
        EXPECT_TRUE(it->second.pad(v_pad).contains(sol.v(n)))
            << name << " = " << sol.v(n) << " outside [" << it->second.lo
            << ", " << it->second.hi << "] at T=" << corner.t_k
            << " vdd_scale=" << corner.vdd_scale;
      }
      for (const auto& dev : deck.circuit->devices()) {
        const auto it = branch_by_name.find(dev->name());
        if (it == branch_by_name.end()) continue;
        const auto* vsrc =
            dynamic_cast<const spice::VoltageSource*>(dev.get());
        if (vsrc == nullptr) continue;
        const double i = sol.branch_current(vsrc->branch());
        const double i_pad = 1e-12 + 1e-2 * std::fabs(i);
        EXPECT_TRUE(it->second.pad(i_pad).contains(i))
            << dev->name() << " branch current " << i << " outside ["
            << it->second.lo << ", " << it->second.hi << "] at T="
            << corner.t_k << " vdd_scale=" << corner.vdd_scale;
      }
    }
  }
  // The good decks must actually exercise the oracle.
  EXPECT_GE(solved_corners, 8 * 4) << "too few solvable corners";
}

TEST(OpRegionOracle, NominalCornerIsInsideTheNominalAnalysis) {
  // Tighter variant: nominal analysis (point box) vs the nominal solve.
  for (const fs::path& path : committed_decks()) {
    if (path.filename().string().rfind("good_", 0) != 0) continue;
    SCOPED_TRACE(path.filename().string());
    const std::string text = slurp(path);
    netlist::Deck deck = parse_strict(text);
    const CircuitView view(*deck.circuit);
    const AnalysisIR ir = AnalysisIR::build(view);
    const OpRegionResult result =
        analyze_op_region(view, ir, OpRegionOptions{});

    spice::Solution sol;
    try {
      spice::Engine engine(*deck.circuit);
      sol = engine.solve_op();
    } catch (const std::exception&) {
      continue;
    }
    for (int s = 1; s < view.slot_count(); ++s) {
      const spice::NodeId n = view.node_of_slot(s);
      EXPECT_TRUE(result.node_v[s].pad(1e-3).contains(sol.v(n)))
          << view.node_label(n) << " = " << sol.v(n) << " outside ["
          << result.node_v[s].lo << ", " << result.node_v[s].hi << "]";
    }
  }
}

}  // namespace
}  // namespace sscl::lint
