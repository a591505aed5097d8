#include "device/op_report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "netlist/netlist.hpp"
#include "spice/engine.hpp"

namespace sscl::device {
namespace {

netlist::Deck parse_strict(const std::string& text) {
  netlist::ParseOptions options;
  options.strict = true;
  return netlist::parse_netlist(text, options);
}

TEST(OpReport, CollectsNodesSourcesAndMosfets) {
  const auto deck = parse_strict(R"(report test
Vdd vdd 0 1.2
Ib vdd g 1n
M1 g g 0 0 nmos W=2u L=1u
R1 vdd r1 1meg
R2 r1 0 1meg
)");
  spice::Engine engine(*deck.circuit);
  const spice::Solution op = engine.solve_op();
  const OpReport r = collect_op_report(*deck.circuit, op);

  EXPECT_EQ(r.node_voltages.size(), 3u);  // vdd, g, r1
  ASSERT_EQ(r.source_currents.size(), 1u);
  EXPECT_EQ(r.source_currents[0].first, "Vdd");
  ASSERT_EQ(r.mosfets.size(), 1u);
  EXPECT_EQ(r.mosfets[0].name, "M1");
  EXPECT_NEAR(r.mosfets[0].id, 1e-9, 0.1e-9);
  EXPECT_TRUE(r.mosfets[0].weak_inversion);
  // gm/ID near the weak-inversion limit 1/(n UT) ~ 28.6 /V.
  EXPECT_NEAR(r.mosfets[0].gm_over_id, 28.6, 3.0);
  // Vdd delivers the mirror current plus the divider current (0.6 uA).
  EXPECT_NEAR(r.total_supply_current, 0.6e-6 + 1e-9, 0.05e-6);
}

TEST(OpReport, PrintsReadableTables) {
  const auto deck = parse_strict(R"(print test
V1 in 0 1.0
R1 in out 1k
R2 out 0 1k
)");
  spice::Engine engine(*deck.circuit);
  const spice::Solution op = engine.solve_op();
  std::ostringstream os;
  print_op_report(collect_op_report(*deck.circuit, op), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("Operating point"), std::string::npos);
  EXPECT_NE(text.find("out"), std::string::npos);
  EXPECT_NE(text.find("500mV"), std::string::npos);
  EXPECT_NE(text.find("total supply current"), std::string::npos);
}

TEST(OpReport, RegionClassification) {
  const auto deck = parse_strict(R"(regions
Vdd vdd 0 1.2
Vgw gw 0 0.25
Vgs gs 0 1.1
Mweak dw gw 0 0 nmos W=2u L=1u
Mstrong ds gs 0 0 nmos W=2u L=1u
Vdw dw 0 0.6
Vds2 ds 0 0.6
)");
  spice::Engine engine(*deck.circuit);
  engine.solve_op();
  const OpReport r =
      collect_op_report(*deck.circuit, engine.solve_op());
  ASSERT_EQ(r.mosfets.size(), 2u);
  EXPECT_TRUE(r.mosfets[0].weak_inversion);
  EXPECT_FALSE(r.mosfets[1].weak_inversion);
}

}  // namespace
}  // namespace sscl::device
