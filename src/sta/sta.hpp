#pragma once

/// \file sta.hpp
/// Static timing and power analyzer for STSCL gate netlists. Where
/// digital::measure_encoder_fmax finds the maximum clock by binary-
/// searching an event-driven simulation, sta computes the same answer
/// from the netlist graph and the paper's closed-form delay law
/// (td = ln2*Vsw*CL/Iss) — orders of magnitude faster, and with
/// per-path visibility the simulator cannot give.
///
/// The clock model matches EventSim: one global clock, rising edge at
/// t = 0, high during [0, T/2), low during [T/2, T). A latch of phase p
/// is transparent while clock == p; data must be evaluated (arrival +
/// gate delay) before its window closes, and a latch opening re-
/// evaluates its input cone, so data arriving early departs at the
/// window open. Arrivals later than the open borrow transparency time —
/// the paper's two-phase pipelining (Section III-B) analyzed the way
/// production latch-based STA does it.
///
/// Power: paper eq. (1), P_path = 2 ln2 Vsw CL NL fop VDD, evaluated
/// with the fanout-aware per-gate CL summed along each reported path.

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "digital/netlist.hpp"
#include "stscl/scl_params.hpp"

namespace sscl::sta {

/// Thrown when a netlist cannot be timed (combinational loop, invalid
/// gate wiring, latches without a clock, multi-driven signals).
class StaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How latch capture is constrained.
enum class StaMode {
  /// Textbook latch-based STA: every latch must capture its token in an
  /// assigned transparency window; data arriving after the window close
  /// is a violation. Conservative and monotone in the period — the safe
  /// clocking constraint a designer signs off on.
  kClassic,
  /// Model of EventSim's inertial-delay latch: a capture evaluates its
  /// inputs at event *maturity* and retries at every clock edge, so a
  /// token may ride through an opaque latch and commit one window later
  /// (wave pipelining). Throughput is then limited by input *stability*
  /// — the commit must not read a signal mid-transition — which is what
  /// actually bounds measure_encoder_fmax. Not monotone in the period
  /// in pathological cases; use for simulator cross-validation.
  kSimCapture,
};

struct StaOptions {
  /// Run the lint DRC rules before analysis (throws lint::LintError).
  bool lint = true;
  /// Latch capture model (see StaMode).
  StaMode mode = StaMode::kClassic;
  /// When primary-input data becomes valid, measured from the rising
  /// clock edge [s].
  double input_arrival = 0.0;
  /// Additional input arrival as a fraction of the clock period (the
  /// encoder testbench applies inputs at t_rise + 0.05 T).
  double input_arrival_frac = 0.0;
  /// Supply voltage for the eq.-(1) power budgets [V].
  double vdd = 1.0;
  /// Per-kind delay multipliers (transistor-level correction factors,
  /// mirroring EventSim::set_kind_factor).
  std::array<double, digital::kGateKindCount> kind_factor;

  StaOptions() { kind_factor.fill(1.0); }
};

/// One gate on a reported path.
struct PathStep {
  int gate = -1;          ///< gate index in the netlist
  std::string name;       ///< gate name
  int fanout = 0;         ///< driven gate inputs
  double load_cap = 0.0;  ///< fanout-aware CL [F]
  double delay = 0.0;     ///< gate delay at the analysis bias [s]
  double arrival = 0.0;   ///< output arrival time [s]
};

/// A launch-to-capture critical path, traced back through transparent
/// (borrowing) latches until an open-edge-limited launch point.
struct CriticalPath {
  std::vector<PathStep> steps;  ///< launch first, capture latch last
  double arrival = 0.0;         ///< data arrival at the capture input [s]
  double required = 0.0;        ///< capture window close [s]
  double slack = 0.0;           ///< required - (arrival + capture delay)
  double path_cap = 0.0;        ///< sum of load caps: eq. (1)'s CL*NL [F]
  double power_eq1 = 0.0;       ///< eq. (1) at fop = 1/period [W]
};

/// Timing of one latch (pipeline register) at the analysis period.
struct LatchTiming {
  int gate = -1;
  std::string name;
  int rank = 0;           ///< pipeline stage index, 1-based
  bool phase = true;      ///< transparent while clock == phase
  int depth = 0;          ///< logic depth NL of its input cone (incl. itself)
  double open = 0.0;      ///< open of the transparency window used [s]
  double close = 0.0;     ///< required time: window close (classic) or
                          ///< the instant the next token starts corrupting
                          ///< the input (sim-capture) [s]
  double arrival = 0.0;   ///< settled data arrival at the latch input [s]
  double slack = 0.0;     ///< required - capture commit time
};

/// Aggregate timing of one pipeline stage (all latches of one rank).
struct StageTiming {
  int rank = 0;
  bool phase = true;       ///< phase of the stage's worst latch
  int latches = 0;
  int depth = 0;           ///< max logic depth NL in the stage
  double slack = 0.0;      ///< worst slack in the stage
  std::string worst_name;  ///< latch with the worst slack
  double path_cap = 0.0;   ///< caps along the stage's critical path [F]
  double power_eq1 = 0.0;  ///< eq. (1) stage budget at fop = 1/period [W]
};

struct TimingReport {
  double period = 0.0;  ///< analysis clock period [s]
  double iss = 0.0;     ///< analysis tail current [A]
  bool feasible = false;
  double worst_slack = 0.0;
  int max_depth = 0;        ///< max logic depth NL over all stages
  int max_rank = 0;         ///< pipeline depth in latch ranks
  bool has_feedback = false;  ///< latch feedback loops present
  std::vector<LatchTiming> latches;
  std::vector<StageTiming> stages;
  CriticalPath critical;
  double static_power = 0.0;    ///< N_gates * Iss * VDD [W]
  double dynamic_power = 0.0;   ///< sum of stage eq.-(1) budgets [W]

  /// Worst slack over latches of one clock phase (+inf when none).
  double worst_slack_of_phase(bool phase) const;

  /// Human-readable multi-section report.
  std::string text() const;
  /// Stage table: rank,phase,latches,depth,slack,path_cap,power_eq1.
  std::string stage_csv() const;
  /// Critical path table: gate,name,fanout,load_cap,delay,arrival.
  std::string path_csv() const;
};

/// Analyze the netlist at one (iss, period) operating point.
TimingReport analyze(const digital::Netlist& netlist,
                     const stscl::SclModel& model, double iss, double period,
                     const StaOptions& options = {});

/// Maximum clock frequency: binary search on the analytic feasibility
/// boundary (no event simulation anywhere). \p arcs_relaxed, when
/// given, receives the timing arcs (gate inputs) the search relaxed over
/// all its feasibility probes.
double sta_fmax(const digital::Netlist& netlist, const stscl::SclModel& model,
                double iss, const StaOptions& options = {},
                long long* arcs_relaxed = nullptr);

}  // namespace sscl::sta
