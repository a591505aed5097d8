#pragma once

/// \file crosscheck.hpp
/// Cross-validation of the static analyzer against the event-driven
/// simulator: both measure the encoder's fmax at one bias point; the
/// analytic answer must track the simulated one (issue acceptance:
/// within 10% across the 1 nA – 100 nA subthreshold range) while being
/// orders of magnitude faster.

#include "digital/encoder.hpp"
#include "sta/sta.hpp"

namespace sscl::sta {

struct FmaxCrossCheck {
  double iss = 0.0;          ///< tail current of the comparison [A]
  double f_sta = 0.0;        ///< analytic fmax [Hz]
  double f_sim = 0.0;        ///< event-simulated fmax [Hz]
  double ratio = 0.0;        ///< f_sta / f_sim
  double sta_seconds = 0.0;  ///< wall time of the analytic search
  double sim_seconds = 0.0;  ///< wall time of the simulated search
  double speedup = 0.0;      ///< sim_seconds / sta_seconds (load-dependent)
  long long sta_arcs = 0;    ///< timing arcs the analytic search relaxed
  long long sim_events = 0;  ///< events the simulated search evaluated
  /// sim_events / sta_arcs: the work advantage, independent of machine
  /// load.
  double work_ratio = 0.0;

  /// |ratio - 1| <= tolerance.
  bool agrees(double tolerance = 0.10) const;
};

/// Run both fmax measurements on an already-built encoder.
FmaxCrossCheck crosscheck_encoder_fmax(const digital::Netlist& netlist,
                                       const digital::EncoderIo& io,
                                       const stscl::SclModel& model,
                                       double iss,
                                       const StaOptions& options = {});

}  // namespace sscl::sta
