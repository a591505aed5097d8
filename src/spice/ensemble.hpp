#pragma once

/// \file ensemble.hpp
/// Monte-Carlo ensemble evaluation: one immutable circuit topology,
/// many mismatch samples.
///
/// The per-sample path rebuilds a Circuit + Engine per sample and
/// mutates each device with its mismatch draw. The ensemble split
/// factors that into:
///  * Topology    — the shared immutable part: a builder that produces
///                  identical Circuit replicas, the nominal operating
///                  point, and the master engine's pivot sequence.
///  * SampleState — the per-sample part, staged in struct-of-arrays
///                  parameter lanes (EnsembleChannel) instead of device
///                  mutation, plus one candidate solution per lane.
///
/// EnsembleEngine::run() partitions samples into fixed-size blocks and
/// solves each block with a lockstep Newton: per iteration, every
/// device channel evaluates its model once across all active lanes (SoA
/// over contiguous parameter/voltage arrays), then each lane stamps and
/// solves its own MNA system after adopting the master's nominal pivot
/// sequence (LinearSystem::adopt_factorization), so the factorisation
/// arithmetic of a lane never depends on which worker ran it or on what
/// another lane did.
///
/// Determinism contract (tested in tests/spice/test_ensemble.cpp):
///  * sample s draws its mismatch from Rng(seed).fork(s); device
///    ordinal j within the sample from a further fork(j) — identical to
///    the per-sample path's perturb_sample ordinals;
///  * blocks have a fixed size independent of the job count and are
///    mapped over run::parallel_map, so results are bit-identical at
///    any --jobs;
///  * lanes that fail the lockstep Newton, and every sample of a
///    topology that is not batchable(), fall back to the per-sample
///    solve, which is itself a pure function of (seed, s).
/// Known difference vs Engine::newton: the lockstep loop performs no
/// residual backtracking line search, so a converged lane can differ
/// from a per-sample Engine solve within Newton tolerance; tests
/// crosscheck the two at ~10*vntol (docs/ENGINE.md, "Ensemble
/// evaluation").

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/engine.hpp"
#include "util/rng.hpp"

namespace sscl::spice {

// The EnsembleChannel interface the batched path drives lives in
// device.hpp next to the Device virtual that creates it.

/// Knobs of the ensemble run.
struct EnsembleOptions {
  SolverOptions solver;  ///< per-lane Newton tolerances etc. (lint is
                         ///< run once on the master, never per worker)
  int jobs = 1;          ///< worker threads (0 = one per core)
  /// Samples per lockstep block. Fixed independently of jobs so the
  /// block partition — and therefore every lane's arithmetic — is
  /// identical at any thread count.
  int block = 64;
};

/// Observability counters of one EnsembleEngine (published as
/// spice.ensemble.* when tracing is on; docs/OBSERVABILITY.md).
struct EnsembleStats {
  long long samples = 0;           ///< total samples solved
  long long batched_samples = 0;   ///< solved by the lockstep SoA path
  long long fallback_samples = 0;  ///< solved by the per-sample fallback
  long long soa_batches = 0;       ///< masked SoA model evaluations
  long long newton_iterations = 0; ///< lockstep lane-iterations
  long long factor_adoptions = 0;  ///< nominal pivot sequences adopted
  long long numeric_refactors = 0; ///< solves replaying the pivot order
  long long full_factors = 0;      ///< solves that re-pivoted
  double seconds = 0.0;            ///< wall time of the last run()

  double samples_per_second() const {
    return seconds > 0 ? static_cast<double>(samples) / seconds : 0.0;
  }
  double adoption_hit_rate() const {
    const long long f = numeric_refactors + full_factors;
    return f > 0 ? static_cast<double>(numeric_refactors) /
                       static_cast<double>(f)
                 : 0.0;
  }
  void reset() { *this = EnsembleStats{}; }
};

/// Publish the counters to the trace layer (no-op when tracing is off).
void trace_publish_ensemble(const EnsembleStats& st);

/// The shared immutable half of the split: builds circuit replicas,
/// owns the master engine, the nominal (zero-mismatch) operating point
/// and the nominal pivot sequence. Strictly read-only while an
/// EnsembleEngine runs, so workers may share one Topology freely.
class Topology {
 public:
  /// Produces a fresh, identical Circuit replica. Must be pure: every
  /// call yields the same netlist with the same node numbering and the
  /// same device order (node ids resolved against circuit() are valid
  /// for every replica).
  using Builder = std::function<std::unique_ptr<Circuit>()>;

  /// Builds the master circuit, lints it (per \p solver.lint), solves
  /// the nominal operating point and stores its pivot sequence.
  explicit Topology(Builder builder, SolverOptions solver = {});

  /// The master circuit (node/device lookup; never mutated afterwards).
  const Circuit& circuit() const { return *master_; }
  /// Zero-mismatch operating point; the warm start of every lane.
  const Solution& nominal_op() const { return nominal_; }
  /// The master engine's assembled system (nominal pivot donor).
  const LinearSystem& master_system() const;
  const SolverOptions& solver() const { return solver_; }

  /// False when some non-static device cannot provide an
  /// EnsembleChannel (e.g. a MOSFET with junction diodes, or any
  /// Diode); the EnsembleEngine then routes every sample through the
  /// per-sample fallback.
  bool batchable() const { return batchable_; }

  std::unique_ptr<Circuit> make_circuit() const { return builder_(); }

 private:
  Builder builder_;
  SolverOptions solver_;
  std::unique_ptr<Circuit> master_;
  std::unique_ptr<Engine> master_engine_;
  Solution nominal_;
  bool batchable_ = true;
};

/// Batched Monte-Carlo operating-point solver over a shared Topology.
class EnsembleEngine {
 public:
  /// Per-sample measurement: maps the solved operating point of sample
  /// \p sample to a row of doubles. Runs on worker threads; it must
  /// only read the Solution and pre-resolved topology info (node ids
  /// from Topology::circuit() are valid for every replica) — it must
  /// not touch shared mutable state.
  using Measure = std::function<std::vector<double>(std::uint64_t sample,
                                                    const Solution& op)>;

  explicit EnsembleEngine(const Topology& topology,
                          EnsembleOptions options = {});

  /// Solve the DC operating point of samples 0..n-1 (mismatch streams
  /// Rng(seed).fork(s)) and return measure rows in sample order.
  /// Bit-identical at any options.jobs.
  std::vector<std::vector<double>> run(std::uint64_t n_samples,
                                       std::uint64_t seed,
                                       const Measure& measure);

  const EnsembleStats& stats() const { return stats_; }
  const Topology& topology() const { return topology_; }
  const EnsembleOptions& options() const { return options_; }

 private:
  std::vector<std::vector<double>> run_block(std::uint64_t first_sample,
                                             int count, std::uint64_t seed,
                                             const Measure& measure,
                                             EnsembleStats& local);
  std::vector<double> solve_sample(std::uint64_t sample, std::uint64_t seed,
                                   const Measure& measure);

  const Topology& topology_;
  EnsembleOptions options_;
  EnsembleStats stats_;
};

}  // namespace sscl::spice
