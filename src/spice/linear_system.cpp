#include "spice/linear_system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace sscl::spice {

LinearSystem::LinearSystem(int n, bool force_dense, bool force_sparse)
    : n_(n), rhs_(n, 0.0) {
  const bool use_sparse = force_sparse || (!force_dense && n > kSparseThreshold);
  if (use_sparse) {
    sparse_ = std::make_unique<SparseMatrix>(n);
  } else {
    dense_ = std::make_unique<DenseMatrix<double>>(n);
    dense_reserved_.assign(static_cast<std::size_t>(n) * n, 0);
  }
  // rhs_ never reallocates, so its slot table is fixed at construction.
  rhs_addr_.resize(static_cast<std::size_t>(n) + 1);
  rhs_addr_[0] = &trash_;
  for (int r = 0; r < n; ++r) rhs_addr_[r + 1] = &rhs_[r];
}

LinearSystem::LinearSystem(LinearSystem&& other) noexcept {
  *this = std::move(other);
}

LinearSystem& LinearSystem::operator=(LinearSystem&& other) noexcept {
  n_ = other.n_;
  dense_ = std::move(other.dense_);
  sparse_ = std::move(other.sparse_);
  rhs_ = std::move(other.rhs_);
  trash_ = other.trash_;
  slot_addr_ = std::move(other.slot_addr_);
  rhs_addr_ = std::move(other.rhs_addr_);
  pattern_finalized_ = other.pattern_finalized_;
  dense_reserved_ = std::move(other.dense_reserved_);
  baseline_values_ = std::move(other.baseline_values_);
  baseline_rhs_ = std::move(other.baseline_rhs_);
  last_factor_kind_ = other.last_factor_kind_;
  // Slot 0 of both tables must point at *this* object's trash cell.
  if (!rhs_addr_.empty()) rhs_addr_[0] = &trash_;
  if (!slot_addr_.empty()) slot_addr_[0] = &trash_;
  return *this;
}

void LinearSystem::clear() {
  if (sparse_) {
    sparse_->clear();
  } else {
    dense_->clear();
  }
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  trash_ = 0.0;
}

MatrixSlot LinearSystem::reserve(int r, int c) {
  int index = -1;
  if (sparse_) {
    index = pattern_finalized_ ? sparse_->find(r, c) : sparse_->reserve(r, c);
  } else {
    const std::size_t k = static_cast<std::size_t>(r) * n_ + c;
    if (!pattern_finalized_) dense_reserved_[k] = 1;
    if (dense_reserved_[k]) index = static_cast<int>(k);
  }
  if (index < 0) {
    throw std::logic_error("LinearSystem::reserve(" + std::to_string(r) +
                           ", " + std::to_string(c) +
                           "): entry is not in the pattern frozen by "
                           "finalize_pattern()");
  }
  return index + 1;
}

void LinearSystem::finalize_pattern() {
  std::vector<double>& vals = sparse_ ? sparse_->values() : dense_->values();
  slot_addr_.resize(vals.size() + 1);
  slot_addr_[0] = &trash_;
  for (std::size_t k = 0; k < vals.size(); ++k) slot_addr_[k + 1] = &vals[k];
  pattern_finalized_ = true;
}

std::size_t LinearSystem::pattern_entries() const {
  if (sparse_) return sparse_->nonzeros();
  return static_cast<std::size_t>(n_) * n_;
}

void LinearSystem::snapshot_baseline() {
  const std::vector<double>& vals =
      sparse_ ? sparse_->values() : dense_->values();
  baseline_values_.assign(vals.begin(), vals.end());
  baseline_rhs_.assign(rhs_.begin(), rhs_.end());
}

void LinearSystem::restore_baseline() {
  std::vector<double>& vals = sparse_ ? sparse_->values() : dense_->values();
  std::copy(baseline_values_.begin(), baseline_values_.end(), vals.begin());
  std::copy(baseline_rhs_.begin(), baseline_rhs_.end(), rhs_.begin());
  trash_ = 0.0;
}

void LinearSystem::multiply(const std::vector<double>& x,
                            std::vector<double>& y) const {
  if (sparse_) {
    sparse_->multiply(x, y);
  } else {
    dense_->multiply(x, y);
  }
}

bool LinearSystem::values_finite() const {
  const std::vector<double>& vals =
      sparse_ ? sparse_->values() : dense_->values();
  for (const double v : vals) {
    if (!std::isfinite(v)) return false;
  }
  for (const double v : rhs_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

double LinearSystem::residual_norm(const std::vector<double>& x) const {
  std::vector<double> ax;
  multiply(x, ax);
  double norm = 0.0;
  for (int i = 0; i < n_; ++i) {
    norm = std::max(norm, std::fabs(ax[i] - rhs_[i]));
  }
  return norm;
}

bool LinearSystem::solve(std::vector<double>& x_out) {
  x_out = rhs_;
  if (sparse_) {
    if (!sparse_->factor()) {
      last_factor_kind_ = FactorKind::kNone;
      return false;
    }
    last_factor_kind_ = sparse_->last_factor_was_numeric()
                            ? FactorKind::kSparseNumeric
                            : FactorKind::kSparseFull;
    sparse_->solve(x_out);
    return true;
  }
  if (!dense_->factor()) {
    last_factor_kind_ = FactorKind::kNone;
    return false;
  }
  last_factor_kind_ = FactorKind::kDense;
  dense_->solve(x_out);
  // The dense factorisation destroyed the assembled values in place; a
  // later restore_baseline() or clear() rebuilds them.
  return true;
}

void LinearSystem::adopt_factorization(const LinearSystem& from) {
  if (sparse_ && from.sparse_) sparse_->adopt_factorization(*from.sparse_);
}

bool LinearSystem::has_symbolic_factorization() const {
  return sparse_ && sparse_->has_symbolic();
}

}  // namespace sscl::spice
