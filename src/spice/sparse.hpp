#pragma once

/// \file sparse.hpp
/// Sparse LU factorisation of every real MNA system. Left-looking
/// Gilbert-Peierls factorisation with partial pivoting (the same
/// algorithm family as SPICE3 / CSparse).
///
/// Standalone users assemble with add(), which hashes (row, col) into
/// the slot map on every call. The engine never does: LinearSystem
/// reserves every entry once via reserve() during the elaboration-time
/// pattern pass and then writes values straight into the slot array
/// through its slot pointers: no hashing and no pattern growth inside
/// the Newton loop.
///
/// Factorisation is likewise phased: the first factor() performs the
/// full symbolic + threshold-pivoting pass; while the pattern stays
/// unchanged, subsequent factor() calls replay the stored pivot
/// sequence and fill pattern, refreshing numeric values only (a
/// numeric-only refactorisation, typically 2-5x cheaper). A pivot that
/// has decayed below the stability threshold triggers an automatic
/// fallback to the full pivoting pass.

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace sscl::spice {

/// Square sparse matrix with accumulate-style assembly and LU solve.
class SparseMatrix {
 public:
  explicit SparseMatrix(int n = 0);

  void resize(int n);
  int size() const { return n_; }

  /// Zero all values, keeping the sparsity pattern.
  void clear();

  /// Accumulate v into entry (r, c). Grows the pattern on first touch.
  void add(int r, int c, double v);

  /// Reserve a pattern slot for (r, c) without changing its value and
  /// return its index into values() (stable until resize()).
  int reserve(int r, int c) { return slot(r, c); }

  /// Index of (r, c) in values(), or -1 when it is not in the pattern.
  int find(int r, int c) const;

  /// The assembly value array, indexed by the slots reserve() returned.
  std::vector<double>& values() { return values_; }
  const std::vector<double>& values() const { return values_; }

  /// y = A x using the assembly entries (independent of factorisation).
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;

  /// Factor the current values. Reuses the stored pivot sequence when
  /// the pattern is unchanged and the pivots stay numerically sound.
  /// Returns false on numerical singularity.
  bool factor();

  /// True when the last successful factor() was a numeric-only refresh.
  bool last_factor_was_numeric() const { return last_factor_numeric_; }

  /// Adopt another matrix's symbolic factorisation (pivot sequence +
  /// fill pattern). Both matrices must have the same dimension and the
  /// same assembly pattern (entries reserved in the same order); the
  /// call is a no-op otherwise. After adoption the next factor() replays
  /// the donor's pivot sequence on this matrix's values — the ensemble
  /// engine uses this so every Monte-Carlo lane factors with the shared
  /// nominal pivot order regardless of which worker solves it.
  void adopt_factorization(const SparseMatrix& from);

  /// True when a reusable pivot sequence is stored.
  bool has_symbolic() const { return symbolic_valid_; }

  /// Solve A x = b using the factors; b is overwritten with x.
  void solve(std::vector<double>& b) const;

  /// Number of structural nonzeros in the assembled matrix.
  std::size_t nonzeros() const { return values_.size(); }

  /// Fill-in of the factors (for diagnostics/benchmarks).
  std::size_t factor_nonzeros() const { return li_.size() + ui_.size(); }

 private:
  int slot(int r, int c);
  void build_csc() const;
  bool factor_full();
  bool refactor_numeric();

  int n_ = 0;

  // Assembly storage: entry list plus a (row,col)->slot map.
  std::vector<int> rows_, cols_;
  std::vector<double> values_;
  std::unordered_map<std::uint64_t, int> slot_map_;

  // Column-compressed copy of the assembled matrix (rebuilt when the
  // pattern changes, values refreshed each factor()).
  mutable std::vector<int> ap_, ai_;
  mutable std::vector<double> ax_;
  mutable std::vector<int> slot_to_csc_;
  mutable bool pattern_dirty_ = true;

  // LU factors in CSC form. L has a unit diagonal stored explicitly as
  // the first entry of each column; U stores its diagonal last.
  std::vector<int> lp_, li_;
  std::vector<double> lx_;
  std::vector<int> up_, ui_;
  std::vector<double> ux_;
  std::vector<int> pinv_;  // original row -> pivot position
  std::vector<double> work_;  // numeric-refresh scratch (pivot-indexed)
  bool factored_ = false;
  bool symbolic_valid_ = false;  // pivot sequence + fill pattern reusable
  bool last_factor_numeric_ = false;
};

}  // namespace sscl::spice
