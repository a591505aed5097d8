#include "spice/linear_system.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <functional>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

namespace sscl::spice {

namespace {
// Absolute floor below which a pivot is treated as singular, and the
// threshold-pivoting ratio that decides when a reused pivot has decayed
// too far relative to its column and the full pivot search must rerun.
constexpr double kPivotTiny = 1e-300;
constexpr double kPivotReuseThreshold = 1e-3;

// AMD's dense-node rule: an unknown coupled to more than
// max(16, kDenseDegree * sqrt(n)) others (a supply or bias rail on a
// large deck) is left out of the minimum-degree graph and eliminated
// last. Kept in, every elimination next to it would rewrite its long
// adjacency list.
constexpr double kDenseDegree = 10.0;

std::uint64_t slot_key(int r, int c) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)) << 32) |
         static_cast<std::uint32_t>(c);
}

/// Minimum-degree elimination order of the graph of A + A^T (diagonal
/// ignored) for the pattern entries (rows[k], cols[k]). Eliminating a
/// node joins its remaining neighbours into a clique; the next node is
/// the one of least degree, ties to the lowest index, so the order is a
/// pure function of the pattern. Dense nodes go last, in index order.
std::vector<int> minimum_degree_order(int n, const std::vector<int>& rows,
                                      const std::vector<int>& cols) {
  std::vector<int> count(n, 0);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (rows[k] == cols[k]) continue;
    ++count[rows[k]];
    ++count[cols[k]];
  }
  std::vector<std::vector<int>> adj(n);
  for (int i = 0; i < n; ++i) adj[i].reserve(count[i]);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (rows[k] == cols[k]) continue;
    adj[rows[k]].push_back(cols[k]);
    adj[cols[k]].push_back(rows[k]);
  }
  // mark[w] == tag: w is already in the list being built or scanned.
  std::vector<int> mark(n, -1);
  int tag = 0;
  const double dense_degree = std::max(16.0, kDenseDegree * std::sqrt(n));
  std::vector<char> dense(n, 0);
  for (int i = 0; i < n; ++i) {
    ++tag;
    // An entry stamped both ways, (i, j) and (j, i), is listed twice.
    std::erase_if(adj[i], [&](int j) {
      const bool repeated = mark[j] == tag;
      mark[j] = tag;
      return repeated;
    });
    dense[i] = static_cast<double>(adj[i].size()) > dense_degree;
  }

  // Adjacency lists hold only nodes still in the graph, so a node's
  // degree is the size of its list. Every node in the graph has a heap
  // entry keyed by its current degree (one is pushed whenever the
  // degree changes); entries left behind by a change are skipped.
  using Key = std::pair<int, int>;  // (degree, node)
  std::priority_queue<Key, std::vector<Key>, std::greater<>> heap;
  for (int i = 0; i < n; ++i) {
    if (dense[i]) continue;
    std::erase_if(adj[i], [&](int j) { return dense[j] != 0; });
    heap.emplace(static_cast<int>(adj[i].size()), i);
  }
  std::vector<int> order;
  order.reserve(n);
  std::vector<char> eliminated(n, 0);
  while (!heap.empty()) {
    const auto [degree, v] = heap.top();
    heap.pop();
    if (eliminated[v] || degree != static_cast<int>(adj[v].size())) continue;
    eliminated[v] = 1;
    order.push_back(v);
    for (const int u : adj[v]) {
      std::vector<int>& au = adj[u];
      const std::size_t degree_before = au.size();
      au.erase(std::find(au.begin(), au.end(), v));
      ++tag;
      mark[u] = tag;
      for (const int w : au) mark[w] = tag;
      for (const int w : adj[v]) {
        if (mark[w] != tag) au.push_back(w);
      }
      if (au.size() != degree_before) {
        heap.emplace(static_cast<int>(au.size()), u);
      }
    }
    std::vector<int>().swap(adj[v]);
  }
  for (int i = 0; i < n; ++i) {
    if (dense[i]) order.push_back(i);
  }
  return order;
}

/// Scratch of the full pass's reach search. One set per thread, grown to
/// the largest system factored on it: a pivoting factorisation allocates
/// nothing once it has grown, and no factors object keeps the scratch (a
/// serve cache keeps 32 engines, at 13 bytes per unknown each).
struct ReachScratch {
  std::vector<char> marked;
  std::vector<int> reach_stack, dfs_stack, dfs_ptr;
};

ReachScratch& reach_scratch() {
  thread_local ReachScratch scratch;
  return scratch;
}

}  // namespace

// Until finalize_pattern() the system is an empty pattern: every column
// is empty and the only cell is the trash cell.
LinearSystem::LinearSystem(int n)
    : n_(n), q_(n), ap_(n + 1, 0), ax_(1, 0.0), slot_cell_(1, 0),
      rhs_(n + 1, 0.0), row_sums_(n, 0.0) {
  std::iota(q_.begin(), q_.end(), 0);
}

void LinearSystem::clear() {
  std::fill(ax_.begin(), ax_.end(), 0.0);
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
}

MatrixSlot LinearSystem::reserve(int r, int c) {
  const std::uint64_t key = slot_key(r, c);
  if (pattern_finalized_) {
    const auto it = slot_map_.find(key);
    if (it == slot_map_.end()) {
      throw std::logic_error("LinearSystem::reserve(" + std::to_string(r) +
                             ", " + std::to_string(c) +
                             "): entry is not in the pattern frozen by "
                             "finalize_pattern()");
    }
    return it->second;
  }
  const auto [it, inserted] =
      slot_map_.try_emplace(key, static_cast<MatrixSlot>(rows_.size()) + 1);
  if (inserted) {
    rows_.push_back(r);
    cols_.push_back(c);
  }
  return it->second;
}

void LinearSystem::finalize_pattern() {
  if (pattern_finalized_) return;
  pattern_finalized_ = true;
  q_ = minimum_degree_order(n_, rows_, cols_);
  std::vector<int> step(n_);
  for (int k = 0; k < n_; ++k) step[q_[k]] = k;
  // Stable counting sort by elimination step: rows within a column keep
  // their reservation order, which fixes the pivot tie-breaks.
  const int nnz = static_cast<int>(rows_.size());
  ap_.assign(n_ + 1, 0);
  ai_.assign(nnz, 0);
  ax_.assign(nnz + 1, 0.0);
  slot_cell_.assign(nnz + 1, nnz);  // slot 0 -> the trash cell ax_[nnz]
  for (int k = 0; k < nnz; ++k) ap_[step[cols_[k]] + 1]++;
  for (int c = 0; c < n_; ++c) ap_[c + 1] += ap_[c];
  std::vector<int> next(ap_.begin(), ap_.end() - 1);
  for (int k = 0; k < nnz; ++k) {
    const int dst = next[step[cols_[k]]]++;
    ai_[dst] = rows_[k];
    slot_cell_[k + 1] = dst;
  }
}

void LinearSystem::snapshot_baseline() {
  baseline_ax_.assign(ax_.begin(), ax_.end());
  baseline_rhs_.assign(rhs_.begin(), rhs_.end());
}

void LinearSystem::restore_baseline() {
  std::copy(baseline_ax_.begin(), baseline_ax_.end(), ax_.begin());
  std::copy(baseline_rhs_.begin(), baseline_rhs_.end(), rhs_.begin());
}

bool LinearSystem::values_finite() const {
  const auto finite = [](double v) { return std::isfinite(v); };
  return std::all_of(ax_.begin(), ax_.end() - 1, finite) &&
         std::all_of(rhs_.begin() + 1, rhs_.end(), finite);
}

double LinearSystem::residual_norm(const std::vector<double>& x) {
  std::fill(row_sums_.begin(), row_sums_.end(), 0.0);
  for (std::size_t k = 0; k + 1 < slot_cell_.size(); ++k) {
    row_sums_[rows_[k]] += ax_[slot_cell_[k + 1]] * x[cols_[k]];
  }
  double norm = 0.0;
  for (int i = 0; i < n_; ++i) {
    norm = std::max(norm, std::fabs(row_sums_[i] - rhs_[i + 1]));
  }
  return norm;
}

void LinearSystem::adopt_factorization(const LinearSystem& from) {
  // The replay walks this system's CSC through the donor's pivot
  // sequence and fill pattern: any other layout would drop or misplace
  // entries. The layout and the order together are the pattern; two
  // different patterns can share a layout under different orders (swap
  // two columns and their places in the order), and a donor with
  // another pattern is refused whatever its layout.
  if (!from.lu_.symbolic_valid || from.ap_ != ap_ || from.ai_ != ai_ ||
      from.q_ != q_) {
    return;
  }
  lu_ = from.lu_;
}

bool LinearSystem::solve(std::vector<double>& x_out) {
  if (!lu_.factor(*this, ax_)) return false;
  lu_.substitute(*this, rhs_, x_out);
  return true;
}

template <typename T>
bool LinearSystem::Factors<T>::factor(const LinearSystem& a,
                                      const std::vector<T>& ax) {
  // A pivot that decayed (or went singular) under the stored ordering
  // falls through to the full threshold-pivoting pass.
  last_numeric = symbolic_valid && refactor_numeric(a, ax);
  return last_numeric || factor_full(a, ax);
}

template <typename T>
void LinearSystem::Factors<T>::substitute(const LinearSystem& a,
                                          const std::vector<T>& rhs,
                                          std::vector<T>& x_out) {
  const int n = a.n_;
  // P A Q = L U: solve L U z = P b in the scratch, then x = Q z.
  work.resize(n);
  T* z = work.data();
  // Apply the row permutation: z[pinv[i]] = b[i].
  for (int i = 0; i < n; ++i) z[pinv[i]] = rhs[i + 1];
  // L y = P b (unit diagonal first in each column).
  for (int j = 0; j < n; ++j) {
    const T zj = z[j];
    for (int p = lp[j] + 1; p < lp[j + 1]; ++p) z[li[p]] -= lx[p] * zj;
  }
  // U z = y (diagonal stored last in each column).
  for (int j = n - 1; j >= 0; --j) {
    z[j] /= ux[up[j + 1] - 1];
    const T zj = z[j];
    for (int p = up[j]; p < up[j + 1] - 1; ++p) z[ui[p]] -= ux[p] * zj;
  }
  x_out.resize(n);
  for (int k = 0; k < n; ++k) x_out[a.q_[k]] = z[k];
}

template <typename T>
bool LinearSystem::Factors<T>::factor_full(const LinearSystem& a,
                                           const std::vector<T>& ax) {
  const int n = a.n_;
  lp.assign(1, 0);
  li.clear();
  lx.clear();
  up.assign(1, 0);
  ui.clear();
  ux.clear();
  pinv.assign(n, -1);
  symbolic_valid = false;

  ReachScratch& scratch = reach_scratch();
  std::vector<char>& marked = scratch.marked;
  std::vector<int>& reach_stack = scratch.reach_stack;
  std::vector<int>& dfs_stack = scratch.dfs_stack;
  std::vector<int>& dfs_ptr = scratch.dfs_ptr;
  work.assign(n, T{});
  marked.assign(n, 0);
  reach_stack.resize(n);
  dfs_stack.resize(n);
  dfs_ptr.resize(n);
  T* x = work.data();

  for (int k = 0; k < n; ++k) {
    // --- Symbolic: DFS from the pattern of A(:,k) through solved columns
    // of L to get the reach set in topological order at the bottom of
    // reach_stack[top..n-1].
    int top = n;
    for (int p = a.ap_[k]; p < a.ap_[k + 1]; ++p) {
      const int start = a.ai_[p];
      if (marked[start]) continue;
      // Iterative DFS.
      int head = 0;
      dfs_stack[0] = start;
      while (head >= 0) {
        const int j = dfs_stack[head];
        if (!marked[j]) {
          marked[j] = 1;
          // Children of j exist only if row j has been pivoted: they are
          // the subdiagonal rows of L(:, pinv[j]).
          dfs_ptr[head] = (pinv[j] >= 0) ? lp[pinv[j]] + 1 : -1;
        }
        bool descended = false;
        if (pinv[j] >= 0) {
          const int pend = lp[pinv[j] + 1];
          while (dfs_ptr[head] < pend) {
            const int child = li[dfs_ptr[head]++];
            if (!marked[child]) {
              dfs_stack[++head] = child;
              descended = true;
              break;
            }
          }
        }
        if (!descended) {
          // Postorder: push onto the reach stack.
          reach_stack[--top] = j;
          --head;
        }
      }
    }

    // --- Numeric: scatter A(:,k) and do the sparse triangular solve.
    for (int p = a.ap_[k]; p < a.ap_[k + 1]; ++p) x[a.ai_[p]] += ax[p];
    for (int px = top; px < n; ++px) {
      const int j = reach_stack[px];
      const int jnew = pinv[j];
      if (jnew < 0) continue;
      // Unit diagonal of L, so no division for x[j] itself.
      const T xj = x[j];
      for (int p = lp[jnew] + 1; p < lp[jnew + 1]; ++p) {
        x[li[p]] -= lx[p] * xj;
      }
    }

    // --- Pivot: largest magnitude among not-yet-pivoted rows (std::abs
    // is std::fabs on real values and the modulus on complex ones).
    int ipiv = -1;
    double pivot_mag = -1.0;
    for (int px = top; px < n; ++px) {
      const int i = reach_stack[px];
      if (pinv[i] < 0) {
        const double m = std::abs(x[i]);
        if (m > pivot_mag) {
          pivot_mag = m;
          ipiv = i;
        }
      }
    }
    if (ipiv < 0 || pivot_mag <= kPivotTiny) {
      for (int px = top; px < n; ++px) {
        x[reach_stack[px]] = T{};
        marked[reach_stack[px]] = 0;
      }
      return false;
    }
    const T pivot = x[ipiv];
    pinv[ipiv] = k;

    // --- Emit U(:,k): solved rows, then the diagonal last.
    for (int px = top; px < n; ++px) {
      const int i = reach_stack[px];
      if (pinv[i] >= 0 && i != ipiv) {
        ui.push_back(pinv[i]);
        ux.push_back(x[i]);
      }
    }
    ui.push_back(k);
    ux.push_back(pivot);
    up.push_back(static_cast<int>(ui.size()));

    // --- Emit L(:,k): unit diagonal first, then scaled subdiagonal.
    li.push_back(ipiv);
    lx.push_back(T(1.0));
    for (int px = top; px < n; ++px) {
      const int i = reach_stack[px];
      if (pinv[i] < 0) {
        li.push_back(i);
        lx.push_back(x[i] / pivot);
      }
      x[i] = T{};
      marked[i] = 0;
    }
    lp.push_back(static_cast<int>(li.size()));
  }

  // Remap L's row indices from original numbering to pivot positions.
  for (int& row : li) row = pinv[row];
  symbolic_valid = true;
  return true;
}

template <typename T>
bool LinearSystem::Factors<T>::refactor_numeric(const LinearSystem& a,
                                                const std::vector<T>& ax) {
  // Replay the stored pivot sequence and fill pattern, refreshing numeric
  // values only. All indices below are pivot positions: li was remapped
  // after the full factor, ui stores pivot positions by construction,
  // and A's rows map through pinv. The stored U order per column is the
  // topological elimination order of the original pass, so replaying it
  // performs the identical arithmetic when the pivots stay sound.
  const int n = a.n_;
  work.assign(n, T{});
  T* w = work.data();

  for (int k = 0; k < n; ++k) {
    for (int p = a.ap_[k]; p < a.ap_[k + 1]; ++p) w[pinv[a.ai_[p]]] += ax[p];

    for (int p = up[k]; p < up[k + 1] - 1; ++p) {
      const int j = ui[p];
      const T xj = w[j];
      ux[p] = xj;
      w[j] = T{};
      for (int q = lp[j] + 1; q < lp[j + 1]; ++q) w[li[q]] -= lx[q] * xj;
    }

    // One pass over L(:,k) finds the column maximum for the pivot test
    // and scales and clears the entries. A failed test discards the
    // scaled values: the full pass that follows rebuilds the factors.
    const T pivot = w[k];
    w[k] = T{};
    double cand_max = std::abs(pivot);
    for (int p = lp[k] + 1; p < lp[k + 1]; ++p) {
      const T v = w[li[p]];
      w[li[p]] = T{};
      cand_max = std::max(cand_max, std::abs(v));
      lx[p] = v / pivot;
    }
    if (std::abs(pivot) <= kPivotTiny ||
        std::abs(pivot) < kPivotReuseThreshold * cand_max) {
      return false;  // the old pivot no longer dominates its column
    }
    ux[up[k + 1] - 1] = pivot;
  }
  return true;
}

// One kernel set, two scalars: the real values of every DC and transient
// solve and the complex values of AC and noise on the same pattern.
template struct LinearSystem::Factors<double>;
template struct LinearSystem::Factors<std::complex<double>>;

}  // namespace sscl::spice
