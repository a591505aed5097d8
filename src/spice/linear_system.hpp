#pragma once

/// \file linear_system.hpp
/// The MNA system and its sparse LU, at every size, for real values
/// (LinearSystem) and the complex values of AC and noise on the same
/// pattern (ComplexSystem). Left-looking Gilbert-Peierls factorisation
/// with partial pivoting (the same algorithm family as SPICE3 / CSparse)
/// on a fill-reducing column order: minimum degree on the pattern of
/// A + A^T, the ordering half of the KLU recipe for circuit matrices.
///
/// Assembly goes through slots only: every matrix entry and rhs row is
/// reserved once during the elaboration-time pattern pass
/// (reserve()/reserve_rhs()), finalize_pattern() freezes the pattern,
/// orders the unknowns and lays the columns out once in compressed-column
/// (CSC) form in elimination order, and per-iteration stamping becomes
/// add_at()/add_rhs_at(): one indirection straight into the CSC value
/// the LU reads, no hashing, no ground branches (slot 0 of the matrix and
/// of the rhs is a trash cell that swallows writes to ground
/// rows/columns and that the LU, the residual and values_finite() never
/// read). snapshot_baseline() and restore_baseline() implement the
/// static-linear stamp cache: the baseline holds everything that is
/// constant across one Newton solve and each iteration starts from a
/// copy of it.
///
/// The elimination order is a pure function of the frozen pattern, so
/// it never depends on values or on Newton's history. The row pivot is
/// still chosen by magnitude within each column. Factorisation is
/// phased: the first solve() performs the full symbolic +
/// threshold-pivoting pass; later solve() calls replay the stored pivot
/// sequence and fill pattern, refreshing numeric values only (a
/// numeric-only refactorisation, typically 2-5x cheaper). A pivot that
/// has decayed below the stability threshold triggers an automatic
/// fallback to the full pivoting pass.

#include <complex>
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

class ComplexSystem;

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

  /// Freeze the pattern after all reservations, compute its
  /// fill-reducing elimination order and lay the columns out as CSC in
  /// that order. Must precede stamping and solve(). Idempotent.
  void finalize_pattern();

  /// Accumulate into a reserved entry. Slot 0 lands in the trash cell.
  void add_at(MatrixSlot s, double v) { ax_[slot_cell_[s]] += v; }
  /// Accumulate into a reserved rhs row. Slot 0 lands in the trash cell.
  void add_rhs_at(RhsSlot s, double v) { rhs_[s] += v; }

  /// Number of structural matrix entries currently in the pattern.
  std::size_t pattern_entries() const { return rows_.size(); }

  /// Fill-in of the factors (for diagnostics/benchmarks).
  std::size_t factor_nonzeros() const { return lu_.nonzeros(); }

  // ---- baseline (static-linear stamp cache) ---------------------------

  /// Capture the current matrix values + rhs as the iteration baseline.
  void snapshot_baseline();
  /// Reset matrix values + rhs to the captured baseline.
  void restore_baseline();

  // ---- solving --------------------------------------------------------

  /// Infinity norm of the KCL residual A x - b for the assembled system.
  /// Sums the rows into a scratch buffer the system keeps.
  double residual_norm(const std::vector<double>& x);

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
  /// entries, laid out in the same order under the same elimination
  /// order); the call is a no-op otherwise. After adoption the next
  /// solve() replays the donor's pivot sequence on this system's values
  /// — the ensemble engine uses this so every Monte-Carlo lane factors
  /// with the shared nominal pivot order regardless of which worker
  /// solves it.
  void adopt_factorization(const LinearSystem& from);

  /// True when a reusable pivot sequence is stored.
  bool has_symbolic_factorization() const { return lu_.symbolic_valid; }

  /// True when the last successful solve() replayed the stored pivot
  /// sequence (a numeric-only refactorisation).
  bool last_factor_was_numeric() const { return lu_.last_numeric; }

 private:
  friend class ComplexSystem;

  /// The LU of one set of values (real or complex) on the frozen
  /// pattern, with its own pivot sequence, in CSC form: L has a unit
  /// diagonal stored first in each column; U stores its diagonal last.
  template <typename T>
  struct Factors {
    /// Replay the stored pivot sequence on \p ax (one value per CSC cell
    /// of \p a), or run the full pivoting pass when there is none or a
    /// pivot has decayed. Returns false on a singular matrix.
    bool factor(const LinearSystem& a, const std::vector<T>& ax);
    /// Solve for \p rhs (row r at rhs[r + 1]) into \p x_out.
    void substitute(const LinearSystem& a, const std::vector<T>& rhs,
                    std::vector<T>& x_out);
    bool factor_full(const LinearSystem& a, const std::vector<T>& ax);
    bool refactor_numeric(const LinearSystem& a, const std::vector<T>& ax);
    std::size_t nonzeros() const { return li.size() + ui.size(); }

    std::vector<int> lp, li;
    std::vector<T> lx;
    std::vector<int> up, ui;
    std::vector<T> ux;
    std::vector<int> pinv;  // original row -> pivot position
    // Dense scratch: indexed by pivot position in the numeric refresh
    // and in substitute(), by original row in the full pass. Each user
    // clears or overwrites it first.
    std::vector<T> work;
    bool symbolic_valid = false;  // pivot sequence + fill pattern reusable
    bool last_numeric = false;    // the last factor() replayed them
  };

  int n_ = 0;

  // The pattern in reservation order: slot k + 1 is entry (rows_[k],
  // cols_[k]). The residual sums each row in this order.
  std::vector<int> rows_, cols_;
  std::unordered_map<std::uint64_t, MatrixSlot> slot_map_;
  bool pattern_finalized_ = false;

  // The elimination order: step k eliminates unknown q_[k]. Identity
  // until finalize_pattern() computes it.
  std::vector<int> q_;

  // The frozen pattern in CSC form, column k holding A(:, q_[k]). ax_
  // holds one value per entry plus the trailing trash cell; slot_cell_
  // maps a slot to its cell in ax_. Rows within a column keep
  // reservation order.
  std::vector<int> ap_, ai_;
  std::vector<double> ax_;
  std::vector<int> slot_cell_;
  // rhs_[0] is the trash cell; row r lives at rhs_[r + 1].
  std::vector<double> rhs_;

  std::vector<double> baseline_ax_;
  std::vector<double> baseline_rhs_;
  // Row sums of residual_norm(), one per unknown.
  std::vector<double> row_sums_;

  Factors<double> lu_;
};

/// Complex values on a finalized LinearSystem's frozen pattern, for one
/// AC or noise analysis: one value per CSC cell, written through the
/// same slots and trash cells, plus a complex rhs. factor() replays the
/// last pivot sequence or falls back to the full pass, as
/// LinearSystem::solve() does. \p pattern must outlive it.
class ComplexSystem {
 public:
  using Complex = std::complex<double>;

  explicit ComplexSystem(const LinearSystem& pattern)
      : pattern_(pattern), ax_(pattern.ax_.size()), rhs_(pattern.rhs_.size()) {}

  /// Zero the values and the rhs; clear_rhs() zeroes the rhs only, to
  /// solve the factored matrix for another rhs.
  void clear() {
    ax_.assign(ax_.size(), Complex{});
    clear_rhs();
  }
  void clear_rhs() { rhs_.assign(rhs_.size(), Complex{}); }

  /// Accumulate into a reserved entry or rhs row; slot 0 is a trash cell.
  void add_at(MatrixSlot s, Complex v) { ax_[pattern_.slot_cell_[s]] += v; }
  void add_rhs_at(RhsSlot s, Complex v) { rhs_[s] += v; }

  /// Factor the assembled values; false on a singular matrix.
  bool factor() { return lu_.factor(pattern_, ax_); }
  /// Solve the last successfully factored matrix for the current rhs.
  void solve(std::vector<Complex>& x_out) {
    lu_.substitute(pattern_, rhs_, x_out);
  }

  std::size_t factor_nonzeros() const { return lu_.nonzeros(); }
  bool last_factor_was_numeric() const { return lu_.last_numeric; }

 private:
  const LinearSystem& pattern_;
  std::vector<Complex> ax_;
  std::vector<Complex> rhs_;
  LinearSystem::Factors<Complex> lu_;
};

}  // namespace sscl::spice
