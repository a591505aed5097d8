#include "spice/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sscl::spice {

namespace {
// Absolute floor below which a pivot is treated as singular, and the
// threshold-pivoting ratio that decides when a reused pivot has decayed
// too far relative to its column and the full pivot search must rerun.
constexpr double kPivotTiny = 1e-300;
constexpr double kPivotReuseThreshold = 1e-3;

std::uint64_t slot_key(int r, int c) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)) << 32) |
         static_cast<std::uint32_t>(c);
}
}  // namespace

SparseMatrix::SparseMatrix(int n) { resize(n); }

void SparseMatrix::resize(int n) {
  n_ = n;
  rows_.clear();
  cols_.clear();
  values_.clear();
  slot_map_.clear();
  pattern_dirty_ = true;
  factored_ = false;
  symbolic_valid_ = false;
}

void SparseMatrix::clear() {
  std::fill(values_.begin(), values_.end(), 0.0);
  factored_ = false;
}

int SparseMatrix::find(int r, int c) const {
  const auto it = slot_map_.find(slot_key(r, c));
  return it == slot_map_.end() ? -1 : it->second;
}

int SparseMatrix::slot(int r, int c) {
  auto [it, inserted] = slot_map_.try_emplace(
      slot_key(r, c), static_cast<int>(values_.size()));
  if (inserted) {
    rows_.push_back(r);
    cols_.push_back(c);
    values_.push_back(0.0);
    pattern_dirty_ = true;
    symbolic_valid_ = false;
  }
  return it->second;
}

void SparseMatrix::add(int r, int c, double v) { values_[slot(r, c)] += v; }

void SparseMatrix::multiply(const std::vector<double>& x,
                            std::vector<double>& y) const {
  y.assign(n_, 0.0);
  for (std::size_t k = 0; k < values_.size(); ++k) {
    y[rows_[k]] += values_[k] * x[cols_[k]];
  }
}

void SparseMatrix::build_csc() const {
  const int nnz = static_cast<int>(values_.size());
  ap_.assign(n_ + 1, 0);
  ai_.assign(nnz, 0);
  ax_.assign(nnz, 0.0);
  slot_to_csc_.assign(nnz, 0);
  for (int k = 0; k < nnz; ++k) ap_[cols_[k] + 1]++;
  for (int c = 0; c < n_; ++c) ap_[c + 1] += ap_[c];
  std::vector<int> next(ap_.begin(), ap_.end() - 1);
  for (int k = 0; k < nnz; ++k) {
    const int dst = next[cols_[k]]++;
    ai_[dst] = rows_[k];
    slot_to_csc_[k] = dst;
  }
  pattern_dirty_ = false;
}

void SparseMatrix::adopt_factorization(const SparseMatrix& from) {
  if (!from.symbolic_valid_ || from.n_ != n_ ||
      from.values_.size() != values_.size()) {
    return;
  }
  lp_ = from.lp_;
  li_ = from.li_;
  lx_ = from.lx_;
  up_ = from.up_;
  ui_ = from.ui_;
  ux_ = from.ux_;
  pinv_ = from.pinv_;
  symbolic_valid_ = true;
  factored_ = false;
}

bool SparseMatrix::factor() {
  if (pattern_dirty_) build_csc();
  // Refresh CSC values from the assembly slots.
  for (std::size_t k = 0; k < values_.size(); ++k) ax_[slot_to_csc_[k]] = values_[k];

  last_factor_numeric_ = false;
  if (symbolic_valid_) {
    if (refactor_numeric()) {
      last_factor_numeric_ = true;
      factored_ = true;
      return true;
    }
    // A pivot decayed (or went singular) under the old ordering: fall
    // through to the full threshold-pivoting pass.
  }
  return factor_full();
}

bool SparseMatrix::factor_full() {
  lp_.assign(1, 0);
  li_.clear();
  lx_.clear();
  up_.assign(1, 0);
  ui_.clear();
  ux_.clear();
  pinv_.assign(n_, -1);
  factored_ = false;
  symbolic_valid_ = false;

  std::vector<double> x(n_, 0.0);
  std::vector<char> marked(n_, 0);
  std::vector<int> reach_stack(n_), dfs_stack(n_), dfs_ptr(n_);

  for (int k = 0; k < n_; ++k) {
    // --- Symbolic: DFS from the pattern of A(:,k) through solved columns
    // of L to get the reach set in topological order at the bottom of
    // reach_stack[top..n_-1].
    int top = n_;
    for (int p = ap_[k]; p < ap_[k + 1]; ++p) {
      const int start = ai_[p];
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
          dfs_ptr[head] = (pinv_[j] >= 0) ? lp_[pinv_[j]] + 1 : -1;
        }
        bool descended = false;
        if (pinv_[j] >= 0) {
          const int pend = lp_[pinv_[j] + 1];
          while (dfs_ptr[head] < pend) {
            const int child = li_[dfs_ptr[head]++];
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
    for (int p = ap_[k]; p < ap_[k + 1]; ++p) x[ai_[p]] += ax_[p];
    for (int px = top; px < n_; ++px) {
      const int j = reach_stack[px];
      const int jnew = pinv_[j];
      if (jnew < 0) continue;
      // Unit diagonal of L, so no division for x[j] itself.
      const double xj = x[j];
      for (int p = lp_[jnew] + 1; p < lp_[jnew + 1]; ++p) {
        x[li_[p]] -= lx_[p] * xj;
      }
    }

    // --- Pivot: largest magnitude among not-yet-pivoted rows.
    int ipiv = -1;
    double pivot_mag = -1.0;
    for (int px = top; px < n_; ++px) {
      const int i = reach_stack[px];
      if (pinv_[i] < 0) {
        const double m = std::fabs(x[i]);
        if (m > pivot_mag) {
          pivot_mag = m;
          ipiv = i;
        }
      }
    }
    if (ipiv < 0 || pivot_mag <= kPivotTiny) {
      for (int px = top; px < n_; ++px) {
        x[reach_stack[px]] = 0.0;
        marked[reach_stack[px]] = 0;
      }
      return false;
    }
    const double pivot = x[ipiv];
    pinv_[ipiv] = k;

    // --- Emit U(:,k): solved rows, then the diagonal last.
    for (int px = top; px < n_; ++px) {
      const int i = reach_stack[px];
      if (pinv_[i] >= 0 && i != ipiv) {
        ui_.push_back(pinv_[i]);
        ux_.push_back(x[i]);
      }
    }
    ui_.push_back(k);
    ux_.push_back(pivot);
    up_.push_back(static_cast<int>(ui_.size()));

    // --- Emit L(:,k): unit diagonal first, then scaled subdiagonal.
    li_.push_back(ipiv);
    lx_.push_back(1.0);
    for (int px = top; px < n_; ++px) {
      const int i = reach_stack[px];
      if (pinv_[i] < 0) {
        li_.push_back(i);
        lx_.push_back(x[i] / pivot);
      }
      x[i] = 0.0;
      marked[i] = 0;
    }
    lp_.push_back(static_cast<int>(li_.size()));
  }

  // Remap L's row indices from original numbering to pivot positions.
  for (int& row : li_) row = pinv_[row];
  factored_ = true;
  symbolic_valid_ = true;
  return true;
}

bool SparseMatrix::refactor_numeric() {
  // Replay the stored pivot sequence and fill pattern, refreshing numeric
  // values only. All indices below are pivot positions: li_ was remapped
  // after the full factor, ui_ stores pivot positions by construction,
  // and A's rows map through pinv_. The stored U order per column is the
  // topological elimination order of the original pass, so replaying it
  // performs the identical arithmetic when the pivots stay sound.
  work_.assign(n_, 0.0);
  double* w = work_.data();

  for (int k = 0; k < n_; ++k) {
    for (int p = ap_[k]; p < ap_[k + 1]; ++p) w[pinv_[ai_[p]]] += ax_[p];

    for (int p = up_[k]; p < up_[k + 1] - 1; ++p) {
      const int j = ui_[p];
      const double xj = w[j];
      ux_[p] = xj;
      w[j] = 0.0;
      for (int q = lp_[j] + 1; q < lp_[j + 1]; ++q) w[li_[q]] -= lx_[q] * xj;
    }

    const double pivot = w[k];
    double cand_max = std::fabs(pivot);
    for (int p = lp_[k] + 1; p < lp_[k + 1]; ++p) {
      cand_max = std::max(cand_max, std::fabs(w[li_[p]]));
    }
    if (std::fabs(pivot) <= kPivotTiny ||
        std::fabs(pivot) < kPivotReuseThreshold * cand_max) {
      // Old pivot no longer dominates its column: clear the workspace and
      // let the caller rerun the full pivot search.
      w[k] = 0.0;
      for (int p = lp_[k] + 1; p < lp_[k + 1]; ++p) w[li_[p]] = 0.0;
      return false;
    }
    ux_[up_[k + 1] - 1] = pivot;
    w[k] = 0.0;
    for (int p = lp_[k] + 1; p < lp_[k + 1]; ++p) {
      lx_[p] = w[li_[p]] / pivot;
      w[li_[p]] = 0.0;
    }
  }
  return true;
}

void SparseMatrix::solve(std::vector<double>& b) const {
  if (!factored_) throw std::runtime_error("SparseMatrix::solve before factor");
  std::vector<double> x(n_);
  // Apply the row permutation: x[pinv[i]] = b[i].
  for (int i = 0; i < n_; ++i) x[pinv_[i]] = b[i];
  // L x = b (unit diagonal first in each column).
  for (int j = 0; j < n_; ++j) {
    const double xj = x[j];
    for (int p = lp_[j] + 1; p < lp_[j + 1]; ++p) x[li_[p]] -= lx_[p] * xj;
  }
  // U x = y (diagonal stored last in each column).
  for (int j = n_ - 1; j >= 0; --j) {
    x[j] /= ux_[up_[j + 1] - 1];
    const double xj = x[j];
    for (int p = up_[j]; p < up_[j + 1] - 1; ++p) x[ui_[p]] -= ux_[p] * xj;
  }
  b = std::move(x);
}

}  // namespace sscl::spice
