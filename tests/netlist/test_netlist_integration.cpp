/// End-to-end front-end test: the sub-Vt buffer bench deck (hierarchical
/// subckts with parameter overrides, .param arithmetic, an .include'd
/// model-card library, expression-valued PULSE source and a .measure
/// block) parsed, simulated and measured entirely in-process. The
/// example_deck_measure_gate ctest pins the same deck byte-for-byte
/// through deck_runner; here we assert the physics with tolerances so
/// the failure mode is readable when something drifts.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "netlist/netlist.hpp"
#include "netlist/run.hpp"

namespace sscl::netlist {
namespace {

Deck parse_bench() {
  const std::string dir = SSCL_EXAMPLE_DECK_DIR;
  const std::string path = dir + "/subvt_buffer_bench.sp";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();

  ParseOptions options;
  options.strict = true;
  options.name = path;
  options.include_loader = file_include_loader(dir);
  return parse_netlist(os.str(), options);
}

TEST(NetlistIntegration, BenchDeckElaborates) {
  const Deck deck = parse_bench();
  EXPECT_TRUE(deck.warnings.empty());
  ASSERT_EQ(deck.analyses.size(), 1u);
  EXPECT_EQ(deck.analyses[0].kind, AnalysisCard::Kind::kTran);
  EXPECT_NEAR(deck.analyses[0].tstop, 40e-6, 1e-18);
  EXPECT_EQ(deck.measures.size(), 9u);

  // The hierarchy flattened with dotted names and the instance
  // overrides applied: xinv2 is the doubled stage (wn = 2*1u).
  const spice::Circuit& c = *deck.circuit;
  ASSERT_TRUE(c.find_node("mid").has_value());
  bool found = false;
  for (const auto& dev : c.devices()) {
    if (dev->name() != "xinv2.mn") continue;
    spice::DeviceInfo info;
    ASSERT_TRUE(dev->describe(info));
    EXPECT_NEAR(info.mos_w, 2e-6, 1e-18);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(NetlistIntegration, BenchDeckMeasuresMatchGoldenPhysics) {
  Deck deck = parse_bench();
  spice::Engine engine(*deck.circuit);
  std::size_t points = 0;
  std::vector<MeasureResult> results;
  DeckHooks hooks;
  hooks.tran = [&](const AnalysisCard&, const spice::Waveform& w) {
    points = w.size();
  };
  hooks.measures = [&](const std::vector<MeasureResult>& r) { results = r; };
  run_deck(deck, engine, hooks);
  ASSERT_GT(points, 100u);
  ASSERT_EQ(results.size(), 9u);

  std::map<std::string, double> by_name;
  for (const auto& r : results) {
    ASSERT_TRUE(r.value.has_value()) << r.name << ": " << r.error;
    by_name[r.name] = *r.value;
  }
  // Values pinned byte-exactly by the deck_runner gate; 1% here keeps
  // the in-process test readable when the engine or front-end moves.
  EXPECT_NEAR(by_name.at("tplh"), 1.065e-8, 0.02e-8);
  EXPECT_NEAR(by_name.at("tphl"), 1.047e-8, 0.02e-8);
  EXPECT_NEAR(by_name.at("slewr"), 5.27e-9, 0.1e-9);
  EXPECT_NEAR(by_name.at("vmax"), 0.427, 0.01);
  EXPECT_NEAR(by_name.at("vmin"), -0.033, 0.01);
  EXPECT_NEAR(by_name.at("pavg"), 1.113e-10, 0.02e-10);
  // Derived chain: evdd = -qvdd*vdd, pavg = evdd/simt, tpavg midpoint.
  EXPECT_NEAR(by_name.at("evdd"), -by_name.at("qvdd") * 0.4, 1e-20);
  EXPECT_NEAR(by_name.at("pavg"), by_name.at("evdd") / 40e-6, 1e-12);
  EXPECT_NEAR(by_name.at("tpavg"),
              0.5 * (by_name.at("tplh") + by_name.at("tphl")), 1e-15);
}

}  // namespace
}  // namespace sscl::netlist
