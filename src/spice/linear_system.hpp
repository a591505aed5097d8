#pragma once

/// \file linear_system.hpp
/// Real MNA system over the sparse LU (sparse.hpp), at every size.
///
/// Assembly goes through slots only: every matrix entry and rhs row is
/// reserved once during the elaboration-time pattern pass
/// (reserve()/reserve_rhs()), finalize_pattern() freezes the pattern
/// and builds a pointer table, and per-iteration stamping becomes
/// add_at()/add_rhs_at() — one indirection, no hashing, no ground
/// branches (slot 0 is a trash cell that swallows writes to ground
/// rows/columns). snapshot_baseline() and restore_baseline() implement
/// the static-linear stamp cache: the baseline holds everything that is
/// constant across one Newton solve and each iteration starts from a
/// memcpy of it.

#include <vector>

#include "spice/sparse.hpp"

namespace sscl::spice {

/// Handle to a reserved matrix entry. Slot 0 is the trash cell (writes
/// are swallowed); real entries start at 1.
using MatrixSlot = int;
/// Handle to a reserved rhs row; same trash-slot convention.
using RhsSlot = int;

class LinearSystem {
 public:
  explicit LinearSystem(int n = 0);

  // The slot tables hold a pointer to this object's own trash cell, so
  // moves must re-point it (vector buffers themselves survive a move).
  LinearSystem(LinearSystem&& other) noexcept;
  LinearSystem& operator=(LinearSystem&& other) noexcept;

  int size() const { return matrix_.size(); }
  /// Always true. Kept only because the benchmark (perfbench/) reads
  /// it; the next change to the benchmark removes it.
  bool is_sparse() const { return true; }

  /// Zero the matrix and right-hand side (the pattern is kept).
  void clear();

  // ---- slot interface (pattern pass + hot-path stamping) --------------

  /// Reserve entry (r, c) in the pattern and return its slot. After
  /// finalize_pattern() the pattern is frozen: an entry already in it
  /// returns its slot, and a new entry throws std::logic_error.
  MatrixSlot reserve(int r, int c);
  /// Reserve rhs row r and return its slot.
  RhsSlot reserve_rhs(int r) { return r + 1; }

  /// Freeze the pattern and build the slot pointer table after all
  /// reservations. Idempotent.
  void finalize_pattern();

  /// Accumulate into a reserved entry. Slot 0 lands in the trash cell.
  void add_at(MatrixSlot s, double v) { *slot_addr_[s] += v; }
  /// Accumulate into a reserved rhs row. Slot 0 lands in the trash cell.
  void add_rhs_at(RhsSlot s, double v) { *rhs_addr_[s] += v; }

  /// Number of structural matrix entries currently in the pattern.
  std::size_t pattern_entries() const { return matrix_.nonzeros(); }

  // ---- baseline (static-linear stamp cache) ---------------------------

  /// Capture the current matrix values + rhs as the iteration baseline.
  void snapshot_baseline();
  /// Reset matrix values + rhs to the captured baseline.
  void restore_baseline();

  // ---- solving --------------------------------------------------------

  /// y = A x with the currently assembled values.
  void multiply(const std::vector<double>& x, std::vector<double>& y) const {
    matrix_.multiply(x, y);
  }

  /// Infinity norm of the KCL residual A x - b for the assembled system.
  double residual_norm(const std::vector<double>& x) const;

  /// True when every assembled matrix value and rhs entry is finite.
  /// Cheap (one linear scan); the engine calls it on the failure path
  /// to distinguish a genuinely singular matrix from a device that
  /// stamped NaN/inf.
  bool values_finite() const;

  /// Factor the assembled matrix and solve for the rhs into \p x_out.
  /// The assembled values and rhs are kept. Returns false on a singular
  /// matrix.
  bool solve(std::vector<double>& x_out);

  /// Adopt \p from's symbolic factorisation (pivot sequence). No-op
  /// when the patterns differ; see SparseMatrix::adopt_factorization.
  void adopt_factorization(const LinearSystem& from) {
    matrix_.adopt_factorization(from.matrix_);
  }

  /// True when a reusable pivot sequence is stored.
  bool has_symbolic_factorization() const { return matrix_.has_symbolic(); }

  /// True when the last successful solve() replayed the stored pivot
  /// sequence (a numeric-only refactorisation).
  bool last_factor_was_numeric() const {
    return matrix_.last_factor_was_numeric();
  }

 private:
  SparseMatrix matrix_;
  std::vector<double> rhs_;

  // Slot pointer tables; index 0 is &trash_ in both.
  double trash_ = 0.0;
  std::vector<double*> slot_addr_;
  std::vector<double*> rhs_addr_;
  bool pattern_finalized_ = false;

  std::vector<double> baseline_values_;
  std::vector<double> baseline_rhs_;
};

}  // namespace sscl::spice
