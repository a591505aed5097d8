#include "digital/fmax.hpp"

#include <stdexcept>

#include "run/parallel_for.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace sscl::digital {

void apply_sample(EventSim& sim, const EncoderIo& io, int segment, int pos) {
  const std::uint64_t cw =
      thermometer(coarse_raw_count(segment, pos), kCoarseComparators);
  const std::uint64_t fw = fine_pattern(segment, pos);
  for (int i = 0; i < kCoarseComparators; ++i) {
    sim.set_input(io.coarse_in[i], (cw >> i) & 1);
  }
  for (int i = 0; i < kFineLines; ++i) {
    sim.set_input(io.fine_in[i], (fw >> i) & 1);
  }
}

EncodedValue read_outputs(const EventSim& sim, const EncoderIo& io) {
  EncodedValue v;
  for (int i = 0; i < 3; ++i) v.coarse |= sim.value(io.coarse_bits[i]) << i;
  for (int i = 0; i < 5; ++i) v.fine |= sim.value(io.fine_bits[i]) << i;
  return v;
}

EncodedValue expected_output(int segment, int pos) {
  return reference_encode(coarse_raw_count(segment, pos), pos);
}

std::vector<std::pair<int, int>> default_stimuli(int n_random,
                                                 std::uint64_t seed) {
  std::vector<std::pair<int, int>> s;
  for (int seg = 0; seg <= 7; ++seg) {
    s.emplace_back(seg, 0);
    s.emplace_back(seg, 15);
    s.emplace_back(seg, 16);
    s.emplace_back(seg, 31);
  }
  util::Rng rng(seed);
  for (int i = 0; i < n_random; ++i) {
    s.emplace_back(static_cast<int>(rng.bounded(8)),
                   static_cast<int>(rng.bounded(32)));
  }
  return s;
}

bool encoder_works_at(const Netlist& netlist, const EncoderIo& io,
                      const stscl::SclModel& timing, double iss, double period,
                      const std::vector<std::pair<int, int>>& stimuli,
                      long long* events_evaluated) {
  EventSim sim(netlist, timing, iss);

  sim.set_input(io.clock, false);
  apply_sample(sim, io, stimuli[0].first, stimuli[0].second);
  sim.settle();

  std::vector<EncodedValue> sampled;
  const int extra_cycles = 10;
  const double t0 = sim.time();
  const int n = static_cast<int>(stimuli.size());
  for (int k = 0; k < n + extra_cycles; ++k) {
    const double t_rise = t0 + k * period;
    sim.run_until(t_rise);
    sampled.push_back(read_outputs(sim, io));
    sim.set_input(io.clock, true);
    // Inputs change just after the rising edge; the sampling rank is
    // transparent in phase 0, so only low-half stability is required.
    if (k + 1 < n) {
      sim.run_until(t_rise + 0.05 * period);
      apply_sample(sim, io, stimuli[k + 1].first, stimuli[k + 1].second);
    }
    sim.run_until(t_rise + 0.5 * period);
    sim.set_input(io.clock, false);
  }
  sim.run_until(t0 + (n + extra_cycles) * period);
  if (events_evaluated) *events_evaluated += sim.events_evaluated();

  for (int lat = 0; lat <= extra_cycles; ++lat) {
    bool all_ok = true;
    for (int k = 0; k < n; ++k) {
      const EncodedValue expect =
          expected_output(stimuli[k].first, stimuli[k].second);
      const std::size_t idx = static_cast<std::size_t>(k + lat);
      if (idx >= sampled.size() || sampled[idx].coarse != expect.coarse ||
          sampled[idx].fine != expect.fine) {
        all_ok = false;
        break;
      }
    }
    if (all_ok) return true;
  }
  return false;
}

double measure_encoder_fmax(const Netlist& netlist, const EncoderIo& io,
                            const stscl::SclModel& timing, double iss,
                            long long* events_evaluated) {
  const auto stimuli = default_stimuli();
  const double td = timing.delay(iss);
  if (events_evaluated) *events_evaluated = 0;
  auto works_at = [&](double period) {
    return encoder_works_at(netlist, io, timing, iss, period, stimuli,
                            events_evaluated);
  };

  double hi = 8.0 * td;
  int guard = 0;
  while (!works_at(hi)) {
    hi *= 2.0;
    if (++guard > 12) {
      throw std::runtime_error("measure_encoder_fmax: no working period");
    }
  }
  double lo = hi / 64.0;
  while (works_at(lo)) {
    lo *= 0.5;
    if (++guard > 24) break;
  }

  const double t_min = util::binary_search_boundary(
      [&](double period) { return !works_at(period); }, lo, hi, 1e-3);
  return 1.0 / t_min;
}

std::vector<double> measure_encoder_fmax_sweep(const Netlist& netlist,
                                               const EncoderIo& io,
                                               const stscl::SclModel& timing,
                                               const std::vector<double>& iss,
                                               int jobs) {
  return run::parallel_map<double>(iss.size(), jobs, [&](std::size_t i) {
    return measure_encoder_fmax(netlist, io, timing, iss[i]);
  });
}

}  // namespace sscl::digital
