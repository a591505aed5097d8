#include "spice/linear_system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace sscl::spice {

LinearSystem::LinearSystem(int n) : matrix_(n), rhs_(n, 0.0) {
  // rhs_ never reallocates, so its slot table is fixed at construction.
  rhs_addr_.resize(static_cast<std::size_t>(n) + 1);
  rhs_addr_[0] = &trash_;
  for (int r = 0; r < n; ++r) rhs_addr_[r + 1] = &rhs_[r];
}

LinearSystem::LinearSystem(LinearSystem&& other) noexcept {
  *this = std::move(other);
}

LinearSystem& LinearSystem::operator=(LinearSystem&& other) noexcept {
  matrix_ = std::move(other.matrix_);
  rhs_ = std::move(other.rhs_);
  trash_ = other.trash_;
  slot_addr_ = std::move(other.slot_addr_);
  rhs_addr_ = std::move(other.rhs_addr_);
  pattern_finalized_ = other.pattern_finalized_;
  baseline_values_ = std::move(other.baseline_values_);
  baseline_rhs_ = std::move(other.baseline_rhs_);
  // Slot 0 of both tables must point at *this* object's trash cell.
  if (!rhs_addr_.empty()) rhs_addr_[0] = &trash_;
  if (!slot_addr_.empty()) slot_addr_[0] = &trash_;
  return *this;
}

void LinearSystem::clear() {
  matrix_.clear();
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  trash_ = 0.0;
}

MatrixSlot LinearSystem::reserve(int r, int c) {
  const int index =
      pattern_finalized_ ? matrix_.find(r, c) : matrix_.reserve(r, c);
  if (index < 0) {
    throw std::logic_error("LinearSystem::reserve(" + std::to_string(r) +
                           ", " + std::to_string(c) +
                           "): entry is not in the pattern frozen by "
                           "finalize_pattern()");
  }
  return index + 1;
}

void LinearSystem::finalize_pattern() {
  std::vector<double>& vals = matrix_.values();
  slot_addr_.resize(vals.size() + 1);
  slot_addr_[0] = &trash_;
  for (std::size_t k = 0; k < vals.size(); ++k) slot_addr_[k + 1] = &vals[k];
  pattern_finalized_ = true;
}

void LinearSystem::snapshot_baseline() {
  const std::vector<double>& vals = matrix_.values();
  baseline_values_.assign(vals.begin(), vals.end());
  baseline_rhs_.assign(rhs_.begin(), rhs_.end());
}

void LinearSystem::restore_baseline() {
  std::copy(baseline_values_.begin(), baseline_values_.end(),
            matrix_.values().begin());
  std::copy(baseline_rhs_.begin(), baseline_rhs_.end(), rhs_.begin());
  trash_ = 0.0;
}

bool LinearSystem::values_finite() const {
  for (const double v : matrix_.values()) {
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
  for (std::size_t i = 0; i < rhs_.size(); ++i) {
    norm = std::max(norm, std::fabs(ax[i] - rhs_[i]));
  }
  return norm;
}

bool LinearSystem::solve(std::vector<double>& x_out) {
  x_out = rhs_;
  if (!matrix_.factor()) return false;
  matrix_.solve(x_out);
  return true;
}

}  // namespace sscl::spice
