#pragma once

/// \file op_region_golden.hpp
/// The op-region golden (tests/lint/golden/op_region.golden): every
/// interval the analyzer publishes for a fixed deck set over two PVT
/// boxes, printed as %a, so a performance change to the analysis that
/// moves a single bit of a single bound fails OpRegionGolden.*.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint/circuit_view.hpp"
#include "lint/ir.hpp"
#include "lint/op_region.hpp"
#include "netlist/lexer.hpp"
#include "netlist/netlist.hpp"

namespace sscl::lint::golden {

struct GoldenDeck {
  std::string dir;   ///< directory the deck (and its includes) live in
  std::string file;  ///< file name, also the golden's deck label
};

/// The decks of the golden, in golden order: every committed lint deck,
/// every example deck, and copies of perfbench's seed-1 STSCL decks
/// (50-gate fabric, delay line, AC gate) kept in tests/lint/golden/decks
/// so the lint baseline does not see them.
inline std::vector<GoldenDeck> golden_decks() {
  const std::string lint_dir = SSCL_LINT_DECK_DIR;
  const std::string example_dir = SSCL_EXAMPLE_DECK_DIR;
  const std::string copy_dir = std::string(SSCL_LINT_GOLDEN_DIR) + "/decks";
  std::vector<GoldenDeck> decks;
  for (const char* f :
       {"bad_bias_orphan_tail.sp", "bad_cap_only_node.sp",
        "bad_domain_crossing.sp", "bad_floating_island.sp",
        "bad_isource_cutset.sp", "bad_vsource_loop.sp", "good_bias_mirror.sp",
        "good_divider.sp", "good_level_shift.sp", "good_stscl_adc.sp",
        "good_stscl_buffer.sp", "good_stscl_counter.sp",
        "good_stscl_pair.sp"}) {
    decks.push_back({lint_dir, f});
  }
  for (const char* f : {"dc_then_tran.sp", "every_card.sp", "serve_bench.sp",
                        "subvt_buffer_bench.sp"}) {
    decks.push_back({example_dir, f});
  }
  for (const char* f :
       {"stscl_fabric_50.sp", "stscl_delay_line.sp", "stscl_ac_gate.sp"}) {
    decks.push_back({copy_dir, f});
  }
  return decks;
}

struct GoldenBox {
  const char* label;
  OpRegionOptions options;
};

/// The nominal box and T = [0, 85] degC x VDD +-10%.
inline std::vector<GoldenBox> golden_boxes() {
  GoldenBox wide{"t0-85c-vdd10", {}};
  wide.options.t_lo_k = 273.15;
  wide.options.t_hi_k = 358.15;
  wide.options.vdd_tol = 0.10;
  return {{"nominal", OpRegionOptions{}}, wide};
}

inline std::unique_ptr<spice::Circuit> load_circuit(const GoldenDeck& deck) {
  std::ifstream in(deck.dir + "/" + deck.file);
  if (!in) throw std::runtime_error("cannot open " + deck.dir + "/" + deck.file);
  std::ostringstream text;
  text << in.rdbuf();
  netlist::ParseOptions parse;
  parse.name = deck.file;
  parse.include_loader = netlist::file_include_loader(deck.dir);
  return netlist::parse_netlist(text.str(), parse).circuit;
}

inline std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

inline std::string hex(const util::Interval& x) {
  return hex(x.lo) + " " + hex(x.hi);
}

/// One deck under one box, one line per published fact.
inline std::string format_result(const std::string& deck,
                                 const std::string& box,
                                 const CircuitView& view,
                                 const OpRegionResult& r) {
  std::ostringstream os;
  os << "deck " << deck << " box " << box << "\n";
  os << "sweeps " << r.sweeps << " contradiction " << r.contradiction << "\n";
  for (std::size_t s = 0; s < r.node_v.size(); ++s) {
    os << "v " << s << " "
       << view.node_label(view.node_of_slot(static_cast<int>(s))) << " "
       << hex(r.node_v[s]) << "\n";
  }
  for (std::size_t di = 0; di < r.branch_i.size(); ++di) {
    if (r.branch_i[di].is_empty()) continue;
    os << "i " << di << " " << view.devices()[di].device->name() << " "
       << hex(r.branch_i[di]) << "\n";
  }
  for (const DeviceRegion& g : r.regions) {
    os << "r " << g.device << " " << view.devices()[g.device].device->name()
       << " ic " << hex(g.ic) << " vdsat " << hex(g.vdsat) << " id "
       << hex(g.id) << " ut " << hex(g.ut) << " n " << hex(g.n) << "\n";
  }
  for (const PairRegion& p : r.pair_regions) {
    os << "p " << p.group << " iss " << hex(p.iss) << " " << p.iss_known
       << " swing " << hex(p.swing) << " " << p.swing_known << " vdsat_pair "
       << hex(p.vdsat_pair) << " vdsat_tail " << hex(p.vdsat_tail) << " rail "
       << hex(p.rail) << " " << p.rail_known << " vdsat_load "
       << hex(p.vdsat_load) << " ic_load " << hex(p.ic_load) << " "
       << p.has_mos_load << p.load_bulk_drain_shorted << p.has_load << "\n";
  }
  return os.str();
}

/// The golden text of one deck under one box.
inline std::string golden_text(const GoldenDeck& deck, const GoldenBox& box) {
  const auto circuit = load_circuit(deck);
  const CircuitView view(*circuit);
  const AnalysisIR ir = AnalysisIR::build(view);
  return format_result(deck.file, box.label, view,
                       analyze_op_region(view, ir, box.options));
}

}  // namespace sscl::lint::golden
