#pragma once

/// \file cards.hpp
/// Plain-data results of elaboration that describe *what to run*:
/// analysis requests, .measure specifications and .ic initial
/// conditions.

#include <string>
#include <vector>

#include "netlist/diagnostic.hpp"
#include "spice/types.hpp"

namespace sscl::netlist {

/// An analysis request found in the deck.
struct AnalysisCard {
  enum class Kind { kOp, kTran, kAc, kDc };
  Kind kind = Kind::kOp;
  // .tran [tstep] tstop  |  .ac dec N fstart fstop
  // .dc source start stop step
  double tstop = 0.0;
  double tstep = 0.0;  ///< informational; the engine auto-steps
  double f_start = 0.0, f_stop = 0.0;
  int points_per_decade = 10;
  std::string sweep_source;
  double sweep_start = 0.0, sweep_stop = 0.0, sweep_step = 0.0;
};

/// A probe inside a .measure card: v(node) or i(vsource|inductor).
struct Probe {
  enum class Type { kVoltage, kCurrent };
  Type type = Type::kVoltage;
  std::string ref;  ///< lowercased node name / device instance name
};

/// One .measure card, fully parsed (thresholds and windows evaluated
/// against the deck's parameter environment at elaboration time; only
/// param='expr' bodies stay textual, they may reference prior results).
struct MeasureSpec {
  enum class Analysis { kTran, kDc };
  enum class Kind { kTrigTarg, kStat, kFindAt, kParam };
  enum class Stat { kInteg, kAvg, kMin, kMax, kRms, kPp };
  enum class EdgeSel { kRise, kFall, kCross };

  std::string name;  ///< lowercased result name
  Analysis analysis = Analysis::kTran;
  Kind kind = Kind::kStat;
  SourceLoc loc;
  std::string location;  ///< formatted file:line for reporting

  // kStat / kFindAt
  Stat stat = Stat::kInteg;
  Probe probe;
  double from = 0.0;
  double to = -1.0;  ///< < 0: end of the analysis window
  double at = 0.0;   ///< kFindAt

  // kTrigTarg: an event is the n-th rise/fall/either crossing of level
  // at or after td.
  struct Event {
    Probe probe;
    double level = 0.0;
    EdgeSel edge = EdgeSel::kCross;
    int count = 1;
    double td = 0.0;
  };
  Event trig, targ;

  // kParam
  std::string expr;  ///< evaluated over deck params + prior results
};

/// A .ic card entry: force-start node voltage for transient/op.
struct IcSpec {
  std::string node;  ///< lowercased node name
  double volts = 0.0;
};

}  // namespace sscl::netlist
