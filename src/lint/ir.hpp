#pragma once

/// \file ir.hpp
/// The shared connectivity IR of the static-analysis framework. Built
/// once per lint run (before any pass executes) and handed read-only to
/// every pass through the LintContext, so interprocedural passes do not
/// each re-derive graphs from the raw CircuitView / Netlist:
///
///  * analog: a net-adjacency view of the bipartite device–net graph
///    (slot-indexed like CircuitView), the source-coupled pair groups,
///    bias-current roots and supply rails;
///  * digital: per-signal consumer lists, the structural levelization
///    shared with sscl::sta (sta::levelize), strongly connected
///    components of the gate graph, and a wiring-validity verdict that
///    lets dataflow passes skip netlists the DRC rules will reject.

#include <span>
#include <string>
#include <vector>

#include "lint/circuit_view.hpp"
#include "sta/timing_graph.hpp"

namespace sscl::digital {
class Netlist;
}

namespace sscl::lint {

/// One conductive/rigid/current coupling seen from a net: the far end
/// and the device edge it came from.
struct NetEdge {
  int to_slot = 0;      ///< far-end net, CircuitView slot indexing
  int device = -1;      ///< CircuitView device index
  int edge = -1;        ///< index into that device's DeviceInfo::edges
  spice::DcCoupling coupling = spice::DcCoupling::kOpen;
};

/// A source-coupled group: >= 2 same-polarity MOSFETs sharing a
/// non-ground source node (the STSCL pair over its tail).
struct SourceCoupledGroup {
  spice::NodeId source = spice::kGround;  ///< the shared tail node
  bool is_nmos = true;
  /// CircuitView device indices of the pair, in device order (a span
  /// into AnalysisIR::group_devices).
  std::span<const int> devices;
};

/// A DC current source: the root of a bias-current distribution tree.
struct BiasRoot {
  int device = -1;  ///< CircuitView device index
  double dc = 0.0;  ///< |DC value| [A]
  spice::NodeId pos = spice::kGround;
  spice::NodeId neg = spice::kGround;
};

/// A named supply rail: a DC voltage source to ground whose instance
/// name follows the supply convention (vdd*/vcc*/avdd*/dvdd*). Each
/// rail seeds one voltage domain for the domain-inference pass.
struct SupplyRail {
  int device = -1;            ///< CircuitView device index
  spice::NodeId node = spice::kGround;  ///< the non-ground terminal
  double voltage = 0.0;
  std::string name;           ///< instance name, original case
};

/// True when \p name (any case) names a supply source per the platform
/// convention documented in docs/ANALYSIS.md.
bool is_supply_name(const std::string& name);

struct AnalysisIR {
  AnalysisIR() = default;
  // The groups hold spans into group_devices, which a move keeps.
  AnalysisIR(AnalysisIR&&) = default;
  AnalysisIR& operator=(AnalysisIR&&) = default;
  AnalysisIR(const AnalysisIR&) = delete;
  AnalysisIR& operator=(const AnalysisIR&) = delete;

  // ---- analog (present when built from a CircuitView) ----------------
  /// Per-slot adjacency over the device DC edges (all couplings except
  /// kOpen; capacitors and MOS gates carry no DC current), in device
  /// and edge order.
  Csr<NetEdge> net_edges;
  /// Every same-polarity group of >= 2 MOSFETs on a non-ground source
  /// node, supply rails included, by source node and then polarity
  /// (PMOS first).
  std::vector<SourceCoupledGroup> source_groups;
  /// The source groups whose source is not a supply rail: the
  /// source-coupled pairs (a rail-sourced group is parallel loads).
  std::vector<SourceCoupledGroup> pairs;
  /// Every group's device indices, one group after another.
  std::vector<int> group_devices;
  std::vector<BiasRoot> bias_roots;
  std::vector<SupplyRail> supplies;

  // ---- digital (present when built from a Netlist) --------------------
  /// signal -> consuming gate indices (only wiring-valid references).
  std::vector<std::vector<int>> consumers;
  sta::Levelization lev;
  /// gate -> strongly-connected-component id over driver->consumer
  /// edges (Tarjan order; singleton SCCs get their own id).
  std::vector<int> scc_of;
  /// SCC id -> member count (> 1 means a feedback loop).
  std::vector<int> scc_size;
  /// All gate inputs in range and every signal at most single-driven:
  /// dataflow passes require this (the wiring DRC names the defects).
  bool wiring_ok = false;

  static AnalysisIR build(const CircuitView& view);
  static AnalysisIR build(const digital::Netlist& netlist);
};

}  // namespace sscl::lint
