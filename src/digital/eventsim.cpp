#include "digital/eventsim.hpp"

#include <stdexcept>

#include "lint/check.hpp"
#include "trace/trace.hpp"

namespace sscl::digital {

EventSim::EventSim(const Netlist& netlist, const stscl::SclModel& timing,
                   double iss, bool lint)
    : netlist_(netlist),
      timing_(timing),
      delay_(timing.delay(iss)),
      values_(netlist.signal_count(), 0),
      fanout_(netlist.signal_count()) {
  // DRC before touching gate inputs: an imported netlist with kNoSignal
  // inputs or out-of-range ids would index fanout_/values_ out of
  // bounds below.
  if (lint) lint::enforce_netlist(netlist_);
  kind_factor_.fill(1.0);
  const auto& gates = netlist_.gates();
  for (int gi = 0; gi < static_cast<int>(gates.size()); ++gi) {
    const Gate& g = gates[gi];
    for (int i = 0; i < input_count(g.kind); ++i) {
      fanout_[g.in[i].sig].push_back(gi);
    }
    if (is_latching(g.kind)) {
      fanout_[netlist_.clock_signal()].push_back(gi);
    }
  }
  set_iss(iss);
  // Evaluate everything once so constant cones settle.
  for (int gi = 0; gi < static_cast<int>(gates.size()); ++gi) {
    queue_.push({0.0, seq_++, gi});
  }
}

void EventSim::set_iss(double iss) {
  delay_ = timing_.delay(iss);
  const auto& gates = netlist_.gates();
  gate_delay_.resize(gates.size());
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const SignalId out = gates[gi].out;
    const bool valid = out >= 0 && out < netlist_.signal_count();
    gate_delay_[gi] = timing_.delay(iss, valid ? netlist_.fanout_of(out) : 1);
  }
}

bool EventSim::eval_gate(const Gate& g) const {
  if (is_latching(g.kind)) {
    const bool transparent = values_[netlist_.clock_signal()] == g.clock_phase;
    if (!transparent) return values_[g.out];
  }
  std::array<bool, 4> in{};
  for (int i = 0; i < input_count(g.kind); ++i) {
    in[i] = (values_[g.in[i].sig] != 0) != g.in[i].neg;
  }
  return eval_comb(g.kind, in);
}

void EventSim::schedule_fanout(SignalId sig) {
  for (int gi : fanout_[sig]) {
    const GateKind kind = netlist_.gates()[gi].kind;
    queue_.push({now_ + gate_delay_[gi] * kind_factor_[static_cast<int>(kind)],
                 seq_++, gi});
  }
}

void EventSim::apply(SignalId sig, bool v) {
  if (values_[sig] == static_cast<char>(v)) return;
  values_[sig] = v;
  ++transitions_;
  schedule_fanout(sig);
}

void EventSim::set_input(SignalId sig, bool value) {
  if (netlist_.driver_of(sig) != -1) {
    throw std::invalid_argument("EventSim::set_input: signal is gate-driven");
  }
  apply(sig, value);
}

void EventSim::run_until(double t) {
  trace::Span span("eventsim.run_until", "eventsim");
  while (!queue_.empty() && queue_.top().t <= t) {
    const Event e = queue_.top();
    queue_.pop();
    now_ = e.t;
    const Gate& g = netlist_.gates()[e.gate];
    // Inertial re-evaluation at maturity: the gate output takes the
    // value its inputs imply *now*; stale glitch events dissolve.
    ++evaluations_;
    apply(g.out, eval_gate(g));
  }
  now_ = t;
  trace::set_counter("eventsim.transitions", transitions_);
}

double EventSim::settle() {
  trace::Span span("eventsim.settle", "eventsim");
  while (!queue_.empty()) {
    const Event e = queue_.top();
    queue_.pop();
    now_ = e.t;
    const Gate& g = netlist_.gates()[e.gate];
    ++evaluations_;
    apply(g.out, eval_gate(g));
  }
  trace::set_counter("eventsim.transitions", transitions_);
  return now_;
}

}  // namespace sscl::digital
