#include "spice/ensemble.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <utility>

#include "run/parallel_for.hpp"
#include "trace/trace.hpp"

namespace sscl::spice {

void trace_publish_ensemble(const EnsembleStats& st) {
  if (!trace::enabled()) return;
  trace::set_counter("spice.ensemble.samples", st.samples);
  trace::set_counter("spice.ensemble.batched_samples", st.batched_samples);
  trace::set_counter("spice.ensemble.fallback_samples", st.fallback_samples);
  trace::set_counter("spice.ensemble.soa_batches", st.soa_batches);
  trace::set_counter("spice.ensemble.newton_iterations", st.newton_iterations);
  trace::set_counter("spice.ensemble.factor_adoptions", st.factor_adoptions);
  trace::set_counter("spice.ensemble.numeric_refactors", st.numeric_refactors);
  trace::set_counter("spice.ensemble.full_factors", st.full_factors);
  trace::set_gauge("spice.ensemble.samples_per_s", st.samples_per_second());
  trace::set_gauge("spice.ensemble.adoption_hit_rate", st.adoption_hit_rate());
  trace::set_gauge("spice.ensemble.seconds", st.seconds);
}

Topology::Topology(Builder builder, SolverOptions solver)
    : builder_(std::move(builder)), solver_(solver) {
  master_ = builder_();
  master_engine_ = std::make_unique<Engine>(*master_, solver_);
  nominal_ = master_engine_->solve_op();
  // Batchable iff every device that stamps per Newton iteration can
  // stage its per-sample state through an EnsembleChannel. Static
  // devices are covered by the per-block baseline.
  for (const auto& device : master_->devices()) {
    if (device->is_static(AnalysisMode::kDcOp)) continue;
    if (!device->make_ensemble_channel()) {
      batchable_ = false;
      break;
    }
  }
}

const LinearSystem& Topology::master_system() const {
  return master_engine_->linear_system();
}

EnsembleEngine::EnsembleEngine(const Topology& topology,
                               EnsembleOptions options)
    : topology_(topology), options_(options) {}

std::vector<double> EnsembleEngine::solve_sample(std::uint64_t sample,
                                                 std::uint64_t seed,
                                                 const Measure& measure) {
  auto circuit = topology_.make_circuit();
  // Mismatch contract: sample s perturbs from Rng(seed).fork(s); the
  // ordinal advances over the devices that consumed a draw, in circuit
  // order.
  const util::Rng stream = util::Rng(seed).fork(sample);
  std::uint64_t ordinal = 0;
  for (const auto& device : circuit->devices()) {
    if (device->perturb_sample(stream, ordinal)) ++ordinal;
  }
  SolverOptions o = options_.solver;
  o.lint = false;  // the master topology was linted once up front
  Engine engine(*circuit, o);
  const Solution op = engine.solve_op();
  return measure(sample, op);
}

std::vector<std::vector<double>> EnsembleEngine::run_block(
    std::uint64_t first_sample, int count, std::uint64_t seed,
    const Measure& measure, EnsembleStats& local) {
  trace::Span span("ensemble_block", "analysis");

  auto circuit = topology_.make_circuit();
  SolverOptions o = options_.solver;
  o.lint = false;
  Engine engine(*circuit, o);
  LinearSystem& sys = engine.linear_system();
  const int n = circuit->unknown_count();
  const int nodes = circuit->node_count();

  // Channels in circuit order; the position among channel-bearing
  // devices is the mismatch ordinal (matches the per-sample path, where
  // exactly the channel-bearing devices consume perturb_sample draws
  // on a batchable circuit).
  std::vector<std::unique_ptr<EnsembleChannel>> channels;
  std::vector<Device*> statics;
  for (const auto& device : circuit->devices()) {
    if (auto ch = device->make_ensemble_channel()) {
      channels.push_back(std::move(ch));
    }
    if (device->is_static(AnalysisMode::kDcOp)) statics.push_back(device.get());
  }
  const util::Rng base(seed);
  for (std::size_t j = 0; j < channels.size(); ++j) {
    channels[j]->sample_params(base, first_sample, count,
                               static_cast<std::uint64_t>(j));
  }

  std::vector<double> state_now(circuit->state_count(), 0.0);
  std::vector<double> state_prev(circuit->state_count(), 0.0);
  LoadContext ctx(sys, nodes, AnalysisMode::kDcOp);

  // Block baseline: static stamps + gmin diagonal, shared by every lane
  // and every iteration (the statics are independent of the candidate
  // solution by definition of is_static).
  const std::vector<double>& x0 = topology_.nominal_op().raw();
  sys.clear();
  ctx.configure(&x0, &x0, &state_now, &state_prev, 0.0, o.gmin, 1.0, true,
                IntegrationMethod::kTrapezoidal, 0.0);
  for (Device* d : statics) d->load(ctx);
  for (const MatrixSlot slot : engine.gmin_slots()) sys.add_at(slot, o.gmin);
  sys.snapshot_baseline();

  // Lockstep Newton: all lanes warm-start from the nominal op.
  std::vector<std::vector<double>> x_lanes(
      static_cast<std::size_t>(count), x0);
  std::vector<char> active(static_cast<std::size_t>(count), 1);
  std::vector<char> solved(static_cast<std::size_t>(count), 0);
  std::vector<const double*> xs(static_cast<std::size_t>(count));
  std::vector<double> x_new(static_cast<std::size_t>(n));
  int n_active = count;

  for (int iter = 0; iter < o.max_iterations && n_active > 0; ++iter) {
    // One SoA model evaluation per channel across all active lanes.
    for (int k = 0; k < count; ++k) xs[k] = x_lanes[k].data();
    for (const auto& ch : channels) {
      ch->evaluate(xs, active);
      ++local.soa_batches;
    }
    for (int k = 0; k < count; ++k) {
      if (!active[k]) continue;
      ++local.newton_iterations;
      sys.restore_baseline();
      ctx.configure(&x_lanes[k], &x_lanes[k], &state_now, &state_prev, 0.0,
                    o.gmin, 1.0, iter == 0,
                    IntegrationMethod::kTrapezoidal, 0.0);
      for (const auto& ch : channels) ch->stamp(ctx, k);
      // Every lane factors from the shared nominal pivot sequence, so
      // a full-pivot fallback in one lane never leaks into another and
      // the arithmetic is independent of lane-to-worker assignment.
      sys.adopt_factorization(topology_.master_system());
      ++local.factor_adoptions;
      // Engine::newton's step: finite check and damping clamp, then
      // the convergence test (no residual line search; see the
      // determinism contract in the header).
      if (!sys.solve(x_new) ||
          !engine.finite_and_clamped(x_new, x_lanes[k])) {
        active[k] = 0;
        --n_active;
        continue;
      }
      if (sys.last_factor_was_numeric()) {
        ++local.numeric_refactors;
      } else {
        ++local.full_factors;
      }
      if (engine.converged_copy(x_lanes[k], x_new)) {
        active[k] = 0;
        solved[k] = 1;
        --n_active;
      }
    }
  }

  std::vector<std::vector<double>> rows(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    const std::uint64_t sample = first_sample + static_cast<std::uint64_t>(k);
    if (solved[k]) {
      ++local.batched_samples;
      const Solution op(std::move(x_lanes[k]), nodes);
      rows[k] = measure(sample, op);
    } else {
      // Lockstep Newton failed (singular lane, non-finite solution or
      // iteration limit): the per-sample solve with its gmin and source
      // stepping continuation takes over. It is a pure function of
      // (seed, sample), so determinism is preserved.
      ++local.fallback_samples;
      rows[k] = solve_sample(sample, seed, measure);
    }
  }
  local.samples += count;
  return rows;
}

std::vector<std::vector<double>> EnsembleEngine::run(std::uint64_t n_samples,
                                                     std::uint64_t seed,
                                                     const Measure& measure) {
  stats_.reset();
  const auto t0 = std::chrono::steady_clock::now();
  trace::Span span("ensemble_run", "analysis");

  std::vector<std::vector<double>> rows;
  if (!topology_.batchable()) {
    rows = run::parallel_map<std::vector<double>>(
        n_samples, options_.jobs, [&](std::size_t s) {
          return solve_sample(static_cast<std::uint64_t>(s), seed, measure);
        });
    stats_.samples = static_cast<long long>(n_samples);
    stats_.fallback_samples = static_cast<long long>(n_samples);
  } else {
    const std::uint64_t block =
        static_cast<std::uint64_t>(std::max(1, options_.block));
    const std::size_t n_blocks =
        static_cast<std::size_t>((n_samples + block - 1) / block);
    std::mutex stats_mutex;
    auto blocks = run::parallel_map<std::vector<std::vector<double>>>(
        n_blocks, options_.jobs, [&](std::size_t bi) {
          const std::uint64_t first = static_cast<std::uint64_t>(bi) * block;
          const int count = static_cast<int>(
              std::min<std::uint64_t>(block, n_samples - first));
          EnsembleStats local;
          auto r = run_block(first, count, seed, measure, local);
          {
            const std::lock_guard<std::mutex> lock(stats_mutex);
            stats_.samples += local.samples;
            stats_.batched_samples += local.batched_samples;
            stats_.fallback_samples += local.fallback_samples;
            stats_.soa_batches += local.soa_batches;
            stats_.newton_iterations += local.newton_iterations;
            stats_.factor_adoptions += local.factor_adoptions;
            stats_.numeric_refactors += local.numeric_refactors;
            stats_.full_factors += local.full_factors;
          }
          return r;
        });
    rows.reserve(n_samples);
    for (auto& b : blocks) {
      for (auto& r : b) rows.push_back(std::move(r));
    }
  }

  stats_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  trace_publish_ensemble(stats_);
  return rows;
}

}  // namespace sscl::spice
