#pragma once

/// \file sweep.hpp
/// The experiment driver every bench runs on: a vector of sweep points,
/// a task mapping (point, index) -> result, and a deterministic parallel
/// execution with ordered collection. Each point runs under a
/// `sweep_point` trace span that carries its index.
///
/// Determinism contract: the task must be a pure function of its point
/// and index -- any randomness comes from a root util::Rng forked by the
/// index (Rng::fork(i)), never from a generator shared across tasks.
/// Under that contract results (and therefore tables/CSVs) are
/// bit-identical for every jobs value. See docs/RUNNER.md.

#include <chrono>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "run/parallel_for.hpp"
#include "trace/trace.hpp"

namespace sscl::run {

template <typename R>
struct SweepResult {
  std::vector<R> results;     ///< ordered as the input points
  double wall_seconds = 0.0;  ///< whole-sweep wall time
};

/// results[i] = task(points[i], i) on up to \p jobs threads (0 = one per
/// core). A throwing task fails the sweep with the exception of the
/// lowest failing index, as parallel_for does.
template <typename P, typename F>
auto sweep(const std::vector<P>& points, F&& task, int jobs = 1)
    -> SweepResult<std::invoke_result_t<F&, const P&, std::size_t>> {
  using R = std::invoke_result_t<F&, const P&, std::size_t>;
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  SweepResult<R> out;
  out.results = parallel_map<R>(points.size(), jobs, [&](std::size_t i) {
    trace::Span span("sweep_point", "task", "index",
                     static_cast<long long>(i));
    return task(points[i], i);
  });
  out.wall_seconds =
      std::chrono::duration<double>(clock::now() - start).count();
  return out;
}

}  // namespace sscl::run
