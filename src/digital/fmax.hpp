#pragma once

/// \file fmax.hpp
/// Maximum-operating-frequency measurement of the STSCL encoder by
/// gate-level simulation with bias-dependent delays (paper Fig. 9(a)).

#include <utility>
#include <vector>

#include "digital/encoder.hpp"
#include "digital/eventsim.hpp"

namespace sscl::digital {

/// Apply one (segment, position) stimulus: the coarse comparator word
/// (half-shifted thresholds) and the fold-polarity-correct fine word.
void apply_sample(EventSim& sim, const EncoderIo& io, int segment, int pos);

/// Read the encoded output bits.
EncodedValue read_outputs(const EventSim& sim, const EncoderIo& io);

/// Expected output for a (segment, position) stimulus.
EncodedValue expected_output(int segment, int pos);

/// Default stimulus set: segment boundaries, mid-codes and deterministic
/// pseudo-random samples.
std::vector<std::pair<int, int>> default_stimuli(int n_random = 24,
                                                 std::uint64_t seed = 1);

/// Clock the encoder at \p period over \p stimuli (one sample per cycle)
/// and check every output against the reference, automatically detecting
/// the pipeline latency. Returns true when all codes match. The
/// simulator's EventSim::events_evaluated() is added to
/// \p events_evaluated when it is given.
bool encoder_works_at(const Netlist& netlist, const EncoderIo& io,
                      const stscl::SclModel& timing, double iss, double period,
                      const std::vector<std::pair<int, int>>& stimuli,
                      long long* events_evaluated = nullptr);

/// Binary-search the maximum clock frequency at the given tail current.
/// \p events_evaluated, when given, receives the events every trial's
/// simulator evaluated.
double measure_encoder_fmax(const Netlist& netlist, const EncoderIo& io,
                            const stscl::SclModel& timing, double iss,
                            long long* events_evaluated = nullptr);

/// fmax at each bias point, searched concurrently on \p jobs threads.
/// Thread model: the netlist and timing model are shared read-only;
/// every trial builds its own EventSim, so the per-point searches are
/// independent and the result vector is identical at any thread count.
std::vector<double> measure_encoder_fmax_sweep(const Netlist& netlist,
                                               const EncoderIo& io,
                                               const stscl::SclModel& timing,
                                               const std::vector<double>& iss,
                                               int jobs = 1);

}  // namespace sscl::digital
