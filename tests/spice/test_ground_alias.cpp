// Regression tests for ground-name aliasing. Circuit::node() maps every
// ground alias to kGround in any case; the deck parser must apply the
// same aliasing inside .subckt expansion, or a "vss!" inside a subckt
// becomes a phantom local node ("x1.vss!") that silently floats.

#include <gtest/gtest.h>

#include "netlist/netlist.hpp"
#include "spice/circuit.hpp"
#include "spice/elements.hpp"
#include "spice/engine.hpp"

namespace sscl::spice {
namespace {

TEST(GroundAlias, EveryAliasMapsToGround) {
  Circuit c;
  for (const char* alias :
       {"0", "gnd", "GND", "Gnd", "gnd!", "GND!", "ground", "GROUND", "vss!",
        "VSS!", "Vss!"}) {
    EXPECT_EQ(c.node(alias), kGround) << alias;
    ASSERT_TRUE(c.find_node(alias).has_value()) << alias;
    EXPECT_EQ(*c.find_node(alias), kGround) << alias;
  }
  // No alias may have created a real node.
  EXPECT_EQ(c.node_count(), 0);
}

TEST(GroundAlias, SimilarNamesStayDistinct) {
  Circuit c;
  EXPECT_NE(c.node("vss"), kGround);   // plain vss is a normal net
  EXPECT_NE(c.node("gnd2"), kGround);
  EXPECT_NE(c.node("grounded"), kGround);
  EXPECT_EQ(c.node_count(), 3);
}

TEST(GroundAlias, GroundNameReportsCanonicalZero) {
  Circuit c;
  c.node("vdd");
  EXPECT_EQ(c.node_name(kGround), "0");
}

TEST(GroundAlias, SubcktExpansionDoesNotCreatePhantomGround) {
  // Before the shared is_ground_name() fix, "vss!" inside the subckt
  // was prefixed to a local node "x1.vss!" and the load floated.
  const char* deck =
      "* ground alias in a subckt\n"
      "V1 in 0 1.0\n"
      "R2 in mid 1k\n"
      ".subckt load top\n"
      "R1 top VSS! 1k\n"
      ".ends\n"
      "X1 mid load\n"
      ".op\n"
      ".end\n";
  netlist::ParseOptions strict;
  strict.strict = true;
  const netlist::Deck parsed = netlist::parse_netlist(deck, strict);
  EXPECT_FALSE(parsed.circuit->find_node("x1.vss!").has_value());

  Engine engine(*parsed.circuit);
  const Solution op = engine.solve_op();
  // R1 really reaches ground: the divider sits at half the supply. With
  // the phantom node, mid floats at 1 V (and lint flags the island).
  EXPECT_NEAR(op.v(*parsed.circuit->find_node("mid")), 0.5, 1e-6);
}

}  // namespace
}  // namespace sscl::spice
