#pragma once

/// \file op_region.hpp
/// Interval abstract interpretation of the DC operating point. Starting
/// from top (every node voltage unknown), the analyzer refines a
/// voltage interval per net by intersecting facts that hold in *every*
/// DC solution over a declared PVT box — rigid source branches, DC
/// inductor shorts, and a Kirchhoff current-box rule that bisects the
/// monotone interval net-current function of a node. Because each step
/// only intersects with sound supersets, the invariant "every reachable
/// operating point lies inside every interval" holds after any number
/// of sweeps; the iteration is a descending (greatest-fixpoint)
/// refinement, so no widening is needed to terminate — it stops on
/// stability or after a fixed sweep cap, sound either way. The PVT box
/// (temperature range, relative supply tolerance) is carried *through*
/// the transfer functions by the interval EKV evaluator rather than by
/// corner enumeration.
///
/// The result feeds the `op-region` lint pass (operating-region
/// certification diagnostics) and the migrated weak-inversion rule, and
/// is cross-checked in CI by a soundness oracle that DC-solves every
/// committed deck at randomized corners inside the box and asserts
/// containment (tests/lint/test_op_region_oracle.cpp).

#include <vector>

#include "lint/circuit_view.hpp"
#include "lint/ir.hpp"
#include "util/interval.hpp"

namespace sscl::lint {

/// The PVT box the analysis certifies over. Defaults describe the
/// nominal corner only (the parse temperature, exact supplies).
struct OpRegionOptions {
  double t_lo_k = 300.15;  ///< coldest corner [K]
  double t_hi_k = 300.15;  ///< hottest corner [K]
  double vdd_tol = 0.0;    ///< relative tolerance on supply-named sources
};

/// Interval region facts for one described MOSFET over the box.
struct DeviceRegion {
  int device = -1;        ///< CircuitView device index
  util::Interval ic;      ///< forward inversion coefficient IC
  util::Interval vdsat;   ///< UT (2 sqrt(IC) + 4) [V]
  util::Interval id;      ///< drain->source channel current [A]
  util::Interval ut;      ///< thermal voltage over the box [V]
  double n = 1.0;         ///< slope factor of the card
};

/// Certification facts for one source-coupled group.
struct PairRegion {
  int group = -1;           ///< index into AnalysisIR::pairs
  util::Interval iss;       ///< tail current magnitude [A]
  bool iss_known = false;   ///< tail current could be bounded
  util::Interval swing;     ///< single-ended output swing [V]
  bool swing_known = false;
  util::Interval vdsat_pair;  ///< hull of the pair devices' VDsat
  util::Interval vdsat_tail;  ///< tail device VDsat (0 for ideal source)
  util::Interval rail;        ///< load-side rail voltage interval
  bool rail_known = false;
  util::Interval vdsat_load;  ///< hull over MOS loads (empty: R loads)
  util::Interval ic_load;     ///< hull of MOS-load forward IC (gate side)
  bool has_mos_load = false;
  /// Every MOS load has its bulk shorted to its drain (the paper's
  /// high-value resistor, Fig. 7(b)): the drain-bulk tie couples the
  /// output into the bulk, so the classic |VDS| < VDsat triode test
  /// does not apply — the device behaves as an exponential resistor
  /// for as long as it conducts in weak inversion.
  bool load_bulk_drain_shorted = false;
  bool has_load = false;      ///< at least one load could be identified
};

/// Work one analysis did; deterministic for a given circuit and box.
/// The op-region pass publishes it as the lint.op_region.* counters.
struct OpRegionStats {
  long long ekv_f_evals = 0;  ///< EKV F endpoint evaluations computed
  long long kcl_steps = 0;    ///< KCL node-bound bisection steps
  long long swing_steps = 0;  ///< MOS-load swing bisection steps
};

struct OpRegionResult {
  OpRegionOptions options;
  /// Node-voltage intervals, CircuitView slot indexing (ground = slot
  /// 0). Ineligible nets stay top(): unknown, not unconstrained-proven.
  std::vector<util::Interval> node_v;
  /// Per-device branch-current intervals for independent voltage
  /// sources (positive = current pos->neg through the source, i.e. the
  /// source absorbs power), CircuitView device indexing; empty interval
  /// where unknown or not a vsource.
  std::vector<util::Interval> branch_i;
  /// One entry per described MOSFET, in CircuitView device order.
  std::vector<DeviceRegion> regions;
  /// One entry per AnalysisIR source-coupled group.
  std::vector<PairRegion> pair_regions;
  int sweeps = 0;  ///< refinement sweeps actually run
  /// An intersection came up empty (model says no DC solution exists in
  /// the box). The conflicting refinement is dropped so the published
  /// intervals stay sound supersets of whatever the solver does.
  bool contradiction = false;
  OpRegionStats stats;

  const DeviceRegion* region_of(int device) const {
    for (const DeviceRegion& r : regions) {
      if (r.device == device) return &r;
    }
    return nullptr;
  }
};

/// Run the interval analysis. \p view and \p ir must describe the same
/// circuit (the pass framework guarantees this).
OpRegionResult analyze_op_region(const CircuitView& view, const AnalysisIR& ir,
                                 const OpRegionOptions& options);

}  // namespace sscl::lint
