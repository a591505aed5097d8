#pragma once

/// \file linear_system.hpp
/// Real MNA system and its sparse LU, at every size. Left-looking
/// Gilbert-Peierls factorisation with partial pivoting (the same
/// algorithm family as SPICE3 / CSparse).
///
/// Assembly goes through slots only: every matrix entry and rhs row is
/// reserved once during the elaboration-time pattern pass
/// (reserve()/reserve_rhs()), finalize_pattern() freezes the pattern and
/// lays it out once in compressed-column (CSC) form, and per-iteration
/// stamping becomes add_at()/add_rhs_at(): one indirection straight into
/// the CSC value the LU reads, no hashing, no ground branches (slot 0 of
/// the matrix and of the rhs is a trash cell that swallows writes to
/// ground rows/columns and that the LU, the residual and values_finite()
/// never read). snapshot_baseline() and restore_baseline() implement the
/// static-linear stamp cache: the baseline holds everything that is
/// constant across one Newton solve and each iteration starts from a
/// copy of it.
///
/// Factorisation is phased: the first solve() performs the full symbolic
/// + threshold-pivoting pass; later solve() calls replay the stored pivot
/// sequence and fill pattern, refreshing numeric values only (a
/// numeric-only refactorisation, typically 2-5x cheaper). A pivot that
/// has decayed below the stability threshold triggers an automatic
/// fallback to the full pivoting pass.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace sscl::spice {

/// Handle to a reserved matrix entry. Slot 0 is the trash cell (writes
/// are swallowed); real entries start at 1.
using MatrixSlot = int;
/// Handle to a reserved rhs row; same trash-slot convention.
using RhsSlot = int;

class LinearSystem {
 public:
  explicit LinearSystem(int n = 0);

  LinearSystem(const LinearSystem&) = delete;
  LinearSystem& operator=(const LinearSystem&) = delete;
  LinearSystem(LinearSystem&&) = default;
  LinearSystem& operator=(LinearSystem&&) = default;

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

  /// Freeze the pattern after all reservations and lay it out as CSC.
  /// Must precede stamping and solve(). Idempotent.
  void finalize_pattern();

  /// Accumulate into a reserved entry. Slot 0 lands in the trash cell.
  void add_at(MatrixSlot s, double v) { ax_[slot_cell_[s]] += v; }
  /// Accumulate into a reserved rhs row. Slot 0 lands in the trash cell.
  void add_rhs_at(RhsSlot s, double v) { rhs_[s] += v; }

  /// Number of structural matrix entries currently in the pattern.
  std::size_t pattern_entries() const { return rows_.size(); }

  /// Fill-in of the factors (for diagnostics/benchmarks).
  std::size_t factor_nonzeros() const { return li_.size() + ui_.size(); }

  // ---- baseline (static-linear stamp cache) ---------------------------

  /// Capture the current matrix values + rhs as the iteration baseline.
  void snapshot_baseline();
  /// Reset matrix values + rhs to the captured baseline.
  void restore_baseline();

  // ---- solving --------------------------------------------------------

  /// Infinity norm of the KCL residual A x - b for the assembled system.
  double residual_norm(const std::vector<double>& x) const;

  /// True when every assembled matrix value and rhs entry is finite.
  /// Cheap (one linear scan); the engine calls it on the failure path
  /// to distinguish a genuinely singular matrix from a device that
  /// stamped NaN/inf.
  bool values_finite() const;

  /// Factor the assembled matrix and solve for the rhs into \p x_out.
  /// Reuses the stored pivot sequence while the pivots stay numerically
  /// sound. The assembled values and rhs are kept. Returns false on a
  /// singular matrix.
  bool solve(std::vector<double>& x_out);

  /// Adopt \p from's symbolic factorisation (pivot sequence + fill
  /// pattern). Both systems must have the same frozen pattern (the same
  /// entries, laid out in the same order); the call is a no-op
  /// otherwise. After adoption the next solve() replays the donor's
  /// pivot sequence on this system's values — the ensemble engine uses
  /// this so every Monte-Carlo lane factors with the shared nominal
  /// pivot order regardless of which worker solves it.
  void adopt_factorization(const LinearSystem& from);

  /// True when a reusable pivot sequence is stored.
  bool has_symbolic_factorization() const { return symbolic_valid_; }

  /// True when the last successful solve() replayed the stored pivot
  /// sequence (a numeric-only refactorisation).
  bool last_factor_was_numeric() const { return last_factor_numeric_; }

 private:
  bool factor_full();
  bool refactor_numeric();

  int n_ = 0;

  // The pattern in reservation order: slot k + 1 is entry (rows_[k],
  // cols_[k]). The residual sums each row in this order.
  std::vector<int> rows_, cols_;
  std::unordered_map<std::uint64_t, MatrixSlot> slot_map_;
  bool pattern_finalized_ = false;

  // The frozen pattern in CSC form. ax_ holds one value per entry plus
  // the trailing trash cell; slot_cell_ maps a slot to its cell in ax_.
  // Rows within a column keep reservation order.
  std::vector<int> ap_, ai_;
  std::vector<double> ax_;
  std::vector<int> slot_cell_;
  // rhs_[0] is the trash cell; row r lives at rhs_[r + 1].
  std::vector<double> rhs_;

  std::vector<double> baseline_ax_;
  std::vector<double> baseline_rhs_;

  // LU factors in CSC form. L has a unit diagonal stored explicitly as
  // the first entry of each column; U stores its diagonal last.
  std::vector<int> lp_, li_;
  std::vector<double> lx_;
  std::vector<int> up_, ui_;
  std::vector<double> ux_;
  std::vector<int> pinv_;     // original row -> pivot position
  std::vector<double> work_;  // numeric-refresh scratch (pivot-indexed)
  bool symbolic_valid_ = false;  // pivot sequence + fill pattern reusable
  bool last_factor_numeric_ = false;
};

}  // namespace sscl::spice
