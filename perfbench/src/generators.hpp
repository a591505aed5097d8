#pragma once

/// \file generators.hpp
/// Seeded deck generators of the benchmark (perfbench/README.md). Every
/// generator is a pure function of its arguments: the same seed gives
/// byte-identical deck text. Randomness comes from a private SplitMix64
/// stream, so a change to the platform's own util::Rng cannot change
/// the benchmark's inputs.
///
/// Four families:
///  * STSCL decks (fabric, ring, AC gate bench, Monte-Carlo gate deck).
///    Every tail mirrors one shared bias generator: a reference current
///    into a diode-connected NMOS (vbn) and a replica load whose diode
///    connection closes the loop that sets the PMOS load bias (vbp).
///  * The elaboration-heavy hierarchical `.param` network (the shape of
///    examples/decks/serve_bench.sp).
///  * The sub-Vt CMOS cell bench with an `.include`d card file, `.tran`
///    and `.measure` (the shape of examples/decks/subvt_buffer_bench.sp).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: tiny, fully specified, platform-independent.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  int range(int lo, int hi);
  /// Uniform double in [lo, hi), rounded to \p digits decimals so the
  /// deck text stays short and exact.
  double uniform(double lo, double hi, int digits = 3);

 private:
  std::uint64_t state_;
};

/// Stream \p stream of \p seed (independent sub-seeds per use).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// ---- STSCL decks (tran_stscl, mc_yield) ---------------------------------

/// Tap-buffer fabric of \p gates STSCL buffers (5 MOSFETs each) fanning
/// out from one differential pulse input, all tails on the shared bias
/// generator; `.op`, `.tran` and `.measure`. Above kSparseThreshold
/// unknowns, so it takes the sparse LU path.
std::string stscl_fabric_deck(std::uint64_t seed, int gates);

/// Five-stage STSCL delay line (one inverting stage) with its bias
/// generator, driven by a differential pulse; `.tran` + delay
/// `.measure`s. Dense LU path. A closed ring oscillator is not used:
/// with no source-driven node on the loop, lint's interval pass cannot
/// bound any ring node and reports 30 unproven op-region warnings.
std::string stscl_delay_line_deck(std::uint64_t seed);

/// One STSCL buffer biased at its switching point, `.op` + `.ac`.
std::string stscl_ac_gate_deck(std::uint64_t seed);

/// A short STSCL buffer chain with static inputs and `.op` only; every
/// MOSFET lacks junction diodes, so all of them take the ensemble
/// engine's batched SoA path.
std::string stscl_mc_gate_deck(std::uint64_t seed);

// ---- serve_mix families -------------------------------------------------

/// `.param` values of the editable decks: an edit keeps the topology
/// seed and draws a new value seed, so only `.param` value tokens move
/// and the structural hash stays put.
std::string param_network_deck(std::uint64_t topo_seed,
                               std::uint64_t value_seed);

/// Nodes the serve clients ask for on param-network decks.
std::vector<std::string> param_network_nodes();

/// Sub-Vt inverter-chain bench including \p card_file.
std::string subvt_bench_deck(std::uint64_t topo_seed, std::uint64_t value_seed,
                             const std::string& card_file);

/// Nodes the serve clients ask for on sub-Vt bench decks.
std::vector<std::string> subvt_bench_nodes();

/// The EKV card file the sub-Vt benches include (written at setup).
std::string subvt_card_file();

}  // namespace perfbench
