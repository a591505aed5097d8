/// Bit-identity regression between the staged netlist front-end and the
/// original single-pass deck parser. The goldens under
/// tests/netlist/golden/ were generated with that parser at the seed
/// commit; every committed lint deck must elaborate to exactly the same
/// signature (node numbering, device order, stamped values) through
/// netlist::parse_netlist, in strict and in lenient mode.
///
/// Those lint decks are flat. The hierarchical decks below (.subckt,
/// .param expressions, X cards with overrides, .global, .include) have
/// their own goldens, written by the evaluate-while-parsing expression
/// interpreter, so a change to expression evaluation or to subckt
/// expansion must leave every elaborated circuit as it was.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
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

/// Signature of a deck elaborated the way deck_runner reads it: lenient,
/// with .include resolved next to the deck.
std::string signature_of(const fs::path& deck_path) {
  netlist::ParseOptions options;
  options.include_loader =
      netlist::file_include_loader(deck_path.parent_path().string());
  const netlist::Deck deck = netlist::parse_netlist(slurp(deck_path), options);
  return testing::deck_signature(*deck.circuit);
}

TEST(Compat, HierarchicalDecksMatchTheirSignatureGoldens) {
  const fs::path decks[] = {
      fs::path(SSCL_EXAMPLE_DECK_DIR) / "every_card.sp",
      fs::path(SSCL_EXAMPLE_DECK_DIR) / "subvt_buffer_bench.sp",
      fs::path(SSCL_FUZZ_CORPUS_DIR) / "hier_param.sp",
  };
  for (const fs::path& deck_path : decks) {
    fs::path golden_path = fs::path(SSCL_NETLIST_GOLDEN_DIR) / deck_path.stem();
    golden_path += ".sig";
    EXPECT_EQ(signature_of(deck_path), slurp(golden_path))
        << deck_path.filename() << " elaborates differently";
  }
}

TEST(Compat, ServeBenchSignatureMatchesItsDigest) {
  // The serve_bench.sp signature is ~158 KB (2,050 devices), so the
  // golden keeps its FNV-1a 64 digest and its sizes instead.
  const fs::path deck_path = fs::path(SSCL_EXAMPLE_DECK_DIR) / "serve_bench.sp";
  netlist::ParseOptions options;
  const netlist::Deck deck = netlist::parse_netlist(slurp(deck_path), options);
  const std::string sig = testing::deck_signature(*deck.circuit);
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : sig) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "fnv1a64 %016" PRIx64 "\nbytes %zu\nnodes %d\ndevices %zu\n",
                hash, sig.size(), deck.circuit->node_count(),
                deck.circuit->devices().size());
  EXPECT_EQ(buf, slurp(fs::path(SSCL_NETLIST_GOLDEN_DIR) /
                       "serve_bench.sig.digest"));
}

}  // namespace
}  // namespace sscl
