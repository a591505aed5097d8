#pragma once

/// \file eventsim.hpp
/// Event-driven simulator for STSCL gate netlists with per-gate delays
/// from the analytic SclModel (calibrated against the transistor-level
/// cells). Latches are transparent-high/low on the shared clock; gates
/// have an inertial delay: on an input event the gate re-evaluates when
/// the event matures, so pulses shorter than the delay vanish exactly as
/// they do in the current-starved cells.

#include <array>
#include <cstdint>
#include <queue>
#include <vector>

#include "digital/netlist.hpp"
#include "stscl/scl_params.hpp"

namespace sscl::digital {

class EventSim {
 public:
  /// \p timing supplies the per-gate delay at the given tail current.
  /// With \p lint (the default) the netlist is run through the DRC rules
  /// first; errors (undriven signals, combinational loops, ...) throw
  /// lint::LintError before any fanout tables are built.
  EventSim(const Netlist& netlist, const stscl::SclModel& timing, double iss,
           bool lint = true);

  /// Current simulated time [s].
  double time() const { return now_; }

  /// Set a primary input (or the clock) at the current time. The change
  /// propagates when run() advances.
  void set_input(SignalId sig, bool value);

  /// Advance the simulation until \p t (processing all matured events).
  void run_until(double t);

  /// Settle: run until the event queue drains (returns the finish time).
  double settle();

  bool value(SignalId sig) const { return values_[sig]; }
  /// Read through a polarity reference.
  bool value(Ref r) const { return values_[r.sig] ^ r.neg; }

  /// Total signal transitions processed (activity metric).
  long long transition_count() const { return transitions_; }
  /// Events processed: gate re-evaluations at event maturity (the
  /// simulator's unit of work).
  long long events_evaluated() const { return evaluations_; }

  /// Delay of a gate at the calibration load (fanout 1) [s]. Individual
  /// gates run slower in proportion to their fanout-aware load.
  double gate_delay() const { return delay_; }

  /// Fanout-aware delay of one specific gate (before its kind factor).
  double gate_delay(int gate) const { return gate_delay_[gate]; }

  /// Change the tail current (rescales every gate delay); takes effect
  /// for newly scheduled events.
  void set_iss(double iss);

  /// Per-kind delay multiplier (default 1.0): compound stacked gates
  /// are slower than the buffer; factors come from transistor-level
  /// characterisation (stscl::relative_cell_delays).
  void set_kind_factor(GateKind kind, double factor) {
    kind_factor_[static_cast<int>(kind)] = factor;
  }
  double kind_factor(GateKind kind) const {
    return kind_factor_[static_cast<int>(kind)];
  }

 private:
  struct Event {
    double t;
    std::uint64_t seq;  // FIFO tiebreak for equal times
    int gate;
    bool operator>(const Event& other) const {
      return t != other.t ? t > other.t : seq > other.seq;
    }
  };

  bool eval_gate(const Gate& g) const;
  void schedule_fanout(SignalId sig);
  void apply(SignalId sig, bool v);

  const Netlist& netlist_;
  stscl::SclModel timing_;
  double delay_;
  std::vector<double> gate_delay_;  // per-gate fanout-aware delay [s]
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::vector<char> values_;
  std::vector<std::vector<int>> fanout_;  // signal -> gate indices
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  long long transitions_ = 0;
  long long evaluations_ = 0;
  std::array<double, kGateKindCount> kind_factor_{};
};

}  // namespace sscl::digital
