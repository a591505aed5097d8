#pragma once

/// \file matrix.hpp
/// Dense LU factorisation with partial pivoting over real or complex
/// scalars. The complex AC and noise solves and the sine fit
/// (analysis/sinefit.hpp) use it; every real MNA solve goes through the
/// sparse LU (linear_system.hpp).

#include <complex>
#include <stdexcept>
#include <vector>

namespace sscl::spice {

/// Row-major dense matrix with in-place LU solve. T is double or
/// std::complex<double>.
template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  explicit DenseMatrix(int n) { resize(n); }

  void resize(int n) {
    n_ = n;
    data_.assign(static_cast<std::size_t>(n) * n, T{});
    pivots_.assign(n, 0);
    factored_ = false;
  }

  int size() const { return n_; }

  void clear() {
    std::fill(data_.begin(), data_.end(), T{});
    factored_ = false;
  }

  T& at(int r, int c) { return data_[static_cast<std::size_t>(r) * n_ + c]; }
  const T& at(int r, int c) const {
    return data_[static_cast<std::size_t>(r) * n_ + c];
  }

  void add(int r, int c, T v) { at(r, c) += v; }

  /// LU-factor in place with partial pivoting. Returns false if the
  /// matrix is numerically singular (pivot below tiny threshold).
  bool factor();

  /// Solve A x = b using the stored factors; b is overwritten with x.
  /// factor() must have succeeded.
  void solve(std::vector<T>& b) const;

  /// Convenience: factor (throwing on singularity) then solve.
  void factor_and_solve(std::vector<T>& b) {
    if (!factor()) throw std::runtime_error("DenseMatrix: singular matrix");
    solve(b);
  }

 private:
  int n_ = 0;
  std::vector<T> data_;
  std::vector<int> pivots_;
  bool factored_ = false;
};

extern template class DenseMatrix<double>;
extern template class DenseMatrix<std::complex<double>>;

}  // namespace sscl::spice
