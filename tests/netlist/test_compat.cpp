/// Bit-identity regression between the staged netlist front-end and the
/// original single-pass deck parser. The goldens under
/// tests/netlist/golden/ were generated with that parser at the seed
/// commit; every committed lint deck must elaborate to exactly the same
/// signature (node numbering, device order, stamped values) through
/// netlist::parse_netlist, in strict and in lenient mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "deck_signature.hpp"
#include "netlist/netlist.hpp"

namespace sscl {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

netlist::Deck parse_strict(const std::string& text) {
  netlist::ParseOptions options;
  options.strict = true;
  return netlist::parse_netlist(text, options);
}

std::vector<fs::path> lint_decks() {
  std::vector<fs::path> decks;
  for (const auto& entry : fs::directory_iterator(SSCL_LINT_DECK_DIR)) {
    if (entry.path().extension() == ".sp") decks.push_back(entry.path());
  }
  std::sort(decks.begin(), decks.end());
  return decks;
}

TEST(Compat, EveryCommittedDeckHasAGolden) {
  const auto decks = lint_decks();
  ASSERT_GE(decks.size(), 13u);
  for (const auto& deck : decks) {
    fs::path golden = fs::path(SSCL_NETLIST_GOLDEN_DIR) / deck.stem();
    golden += ".sig";
    EXPECT_TRUE(fs::exists(golden)) << "missing golden for " << deck;
  }
}

TEST(Compat, ShimElaboratesBitIdenticalToTheSeedParser) {
  for (const auto& deck_path : lint_decks()) {
    fs::path golden_path = fs::path(SSCL_NETLIST_GOLDEN_DIR) / deck_path.stem();
    golden_path += ".sig";
    if (!fs::exists(golden_path)) continue;  // reported by the test above
    const auto deck = parse_strict(slurp(deck_path));
    EXPECT_EQ(testing::deck_signature(*deck.circuit), slurp(golden_path))
        << deck_path.filename() << " drifted from the seed parser";
  }
}

TEST(Compat, LenientPipelineMatchesTheStrictShim) {
  // The committed decks contain no unknown cards, so lenient parsing
  // must not change the elaborated circuit in any way.
  for (const auto& deck_path : lint_decks()) {
    const std::string text = slurp(deck_path);
    const netlist::Deck strict = parse_strict(text);
    const netlist::Deck fresh = netlist::parse_netlist(text);
    EXPECT_EQ(testing::deck_signature(*fresh.circuit),
              testing::deck_signature(*strict.circuit))
        << deck_path.filename();
    EXPECT_TRUE(fresh.warnings.empty()) << deck_path.filename();
  }
}

}  // namespace
}  // namespace sscl
