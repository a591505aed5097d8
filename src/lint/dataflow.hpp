#pragma once

/// \file dataflow.hpp
/// The monotone worklist engine behind every dataflow pass. A pass
/// supplies: a node count, a successor relation (which nodes must be
/// revisited when a node's value grows), per-node values seeded at the
/// lattice bottom (or above, for roots), and a transfer function that
/// recomputes one node's value from whatever it reads. The engine
/// iterates to the least fixpoint in deterministic order: nodes are
/// seeded in index order into a FIFO worklist and re-queued at most
/// once while pending, so the result — and therefore every diagnostic
/// derived from it — is byte-identical run to run and independent of
/// `--jobs` (passes parallelize across each other, never inside).
///
/// Termination: transfer must be monotone w.r.t. the lattice order and
/// the lattice of finite height (lattice.hpp). The engine additionally
/// enforces a sweep budget so a buggy (non-monotone) transfer surfaces
/// as `converged == false` instead of a hang; the lattice-convergence
/// unit tests pin this contract on cyclic graphs.

#include <cstddef>
#include <numeric>
#include <vector>

namespace sscl::lint {

struct DataflowStats {
  int steps = 0;         ///< transfer evaluations performed
  bool converged = true; ///< false when the step budget was exhausted
};

/// Solve to the least fixpoint. `values[v]` holds the current value of
/// node v; `transfer(v)` returns its recomputed value (reading
/// `values`); `succs[v]` lists the nodes whose transfer reads v (a
/// vector of vectors or a Csr, one row per node).
/// `max_steps` defaults to a bound generous for any monotone system:
/// every node can be recomputed once per lattice level per predecessor.
template <typename Succs, typename Value, typename Transfer>
DataflowStats solve_dataflow(const Succs& succs, std::vector<Value>& values,
                             Transfer&& transfer, std::size_t max_steps = 0) {
  const int n = static_cast<int>(values.size());
  if (max_steps == 0) {
    std::size_t edges = 0;
    for (int v = 0; v < n; ++v) edges += succs[v].size();
    max_steps = 64 + 8 * (static_cast<std::size_t>(n) + edges);
  }

  DataflowStats stats;
  // FIFO worklist in a ring of n slots: a node is queued at most once
  // while pending, so the ring never overflows.
  std::vector<int> worklist(n);
  std::iota(worklist.begin(), worklist.end(), 0);
  std::size_t head = 0;
  std::size_t queued = worklist.size();
  std::vector<char> pending(n, 1);

  while (queued > 0) {
    if (static_cast<std::size_t>(stats.steps) >= max_steps) {
      stats.converged = false;
      return stats;
    }
    const int v = worklist[head];
    head = (head + 1) % worklist.size();
    --queued;
    pending[v] = 0;
    ++stats.steps;

    const Value next = transfer(v);
    if (next == values[v]) continue;
    values[v] = next;
    for (const int s : succs[v]) {
      if (s < 0 || s >= n || pending[s]) continue;
      pending[s] = 1;
      worklist[(head + queued) % worklist.size()] = s;
      ++queued;
    }
  }
  return stats;
}

}  // namespace sscl::lint
