#include "spice/waveform.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sscl::spice {

void Waveform::append(double time, const std::vector<double>& x) {
  if (!times_.empty() && time < times_.back()) {
    throw std::invalid_argument("Waveform::append: time went backwards");
  }
  if (times_.empty()) {
    stride_ = x.size();
    block_samples_ = std::max<std::size_t>(
        1, kBlockBytes / (sizeof(double) * std::max<std::size_t>(stride_, 1)));
  } else if (x.size() != stride_) {
    throw std::invalid_argument(
        "Waveform::append: sample length differs from the first sample's");
  }
  if (times_.size() % block_samples_ == 0) {
    blocks_.emplace_back();
    if (blocks_.size() > 1) blocks_.back().reserve(block_samples_ * stride_);
  }
  times_.push_back(time);
  // Keep the whole unknown vector: branch currents (rows past
  // node_count) feed the i(vsource) measurements.
  blocks_.back().insert(blocks_.back().end(), x.begin(), x.end());
}

double Waveform::value(NodeId node, std::size_t i) const {
  if (node == kGround) return 0.0;
  return sample(i)[node];
}

double Waveform::at(NodeId node, double t) const {
  if (empty()) throw std::runtime_error("Waveform::at: empty waveform");
  if (t <= times_.front()) return value(node, 0);
  if (t >= times_.back()) return value(node, size() - 1);
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double span = times_[hi] - times_[lo];
  const double frac = span > 0 ? (t - times_[lo]) / span : 0.0;
  return value(node, lo) + frac * (value(node, hi) - value(node, lo));
}

std::vector<double> Waveform::signal(NodeId node) const {
  std::vector<double> out(size());
  for (std::size_t i = 0; i < size(); ++i) out[i] = value(node, i);
  return out;
}

double Waveform::branch(BranchId b, std::size_t i) const {
  const std::size_t row = static_cast<std::size_t>(node_count_) +
                          static_cast<std::size_t>(b);
  if (b < 0 || row >= stride_) {
    throw std::out_of_range(
        "Waveform::branch: branch currents not recorded in this waveform");
  }
  return sample(i)[row];
}

double Waveform::branch_at(BranchId b, double t) const {
  if (empty()) throw std::runtime_error("Waveform::branch_at: empty waveform");
  if (t <= times_.front()) return branch(b, 0);
  if (t >= times_.back()) return branch(b, size() - 1);
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double span = times_[hi] - times_[lo];
  const double frac = span > 0 ? (t - times_[lo]) / span : 0.0;
  return branch(b, lo) + frac * (branch(b, hi) - branch(b, lo));
}

std::vector<double> Waveform::branch_signal(BranchId b) const {
  std::vector<double> out(size());
  for (std::size_t i = 0; i < size(); ++i) out[i] = branch(b, i);
  return out;
}

std::optional<double> Waveform::cross(NodeId node, double level, Edge edge,
                                      double t_start) const {
  for (std::size_t i = 1; i < size(); ++i) {
    if (times_[i] < t_start) continue;
    const double v0 = value(node, i - 1);
    const double v1 = value(node, i);
    const bool rise = v0 < level && v1 >= level;
    const bool fall = v0 > level && v1 <= level;
    const bool match = (edge == Edge::kRise && rise) ||
                       (edge == Edge::kFall && fall) ||
                       (edge == Edge::kEither && (rise || fall));
    if (!match) continue;
    const double frac = (level - v0) / (v1 - v0);
    const double t = times_[i - 1] + frac * (times_[i] - times_[i - 1]);
    if (t >= t_start) return t;
  }
  return std::nullopt;
}

std::vector<double> Waveform::crossings(NodeId node, double level,
                                        Edge edge) const {
  std::vector<double> out;
  double t_from = times_.empty() ? 0.0 : times_.front();
  for (;;) {
    const auto t = cross(node, level, edge, t_from);
    if (!t) break;
    out.push_back(*t);
    // Nudge past this crossing to find the next one.
    t_from = std::nextafter(*t, times_.back());
    if (!out.empty() && out.size() > 1 && out.back() <= out[out.size() - 2]) break;
    if (t_from >= times_.back()) break;
  }
  return out;
}

std::optional<double> Waveform::delay(NodeId from, double level_from,
                                      Edge edge_from, NodeId to,
                                      double level_to, Edge edge_to,
                                      double t_start) const {
  const auto t0 = cross(from, level_from, edge_from, t_start);
  if (!t0) return std::nullopt;
  const auto t1 = cross(to, level_to, edge_to, *t0);
  if (!t1) return std::nullopt;
  return *t1 - *t0;
}

double Waveform::minimum(NodeId node, double t_start) const {
  double m = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < size(); ++i) {
    if (times_[i] >= t_start) m = std::min(m, value(node, i));
  }
  return m;
}

double Waveform::maximum(NodeId node, double t_start) const {
  double m = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < size(); ++i) {
    if (times_[i] >= t_start) m = std::max(m, value(node, i));
  }
  return m;
}

double Waveform::final_value(NodeId node) const {
  if (empty()) throw std::runtime_error("Waveform::final_value: empty");
  return value(node, size() - 1);
}

std::optional<double> Waveform::period(NodeId node, double level,
                                       double t_start) const {
  std::vector<double> rises;
  double t_from = t_start;
  for (;;) {
    const auto t = cross(node, level, Edge::kRise, t_from);
    if (!t) break;
    rises.push_back(*t);
    t_from = std::nextafter(*t, std::numeric_limits<double>::infinity());
    if (rises.size() > 10000) break;
  }
  if (rises.size() < 2) return std::nullopt;
  return (rises.back() - rises.front()) / static_cast<double>(rises.size() - 1);
}

}  // namespace sscl::spice
