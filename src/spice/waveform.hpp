#pragma once

/// \file waveform.hpp
/// Result storage for transient analysis plus the measurement helpers a
/// characterisation flow needs (crossings, delays, extrema, swing,
/// frequency).

#include <optional>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/types.hpp"

namespace sscl::spice {

/// Direction of a threshold crossing.
enum class Edge { kRise, kFall, kEither };

/// A set of signals sampled on a shared (non-uniform) time axis. The
/// transient analysis stores every node voltage; signals are addressed
/// by NodeId.
class Waveform {
 public:
  Waveform() = default;
  explicit Waveform(int node_count) : node_count_(node_count) {}

  /// Store the solution \p x at \p time. Every sample has the length of
  /// the first one; an append of another length throws
  /// std::invalid_argument, as does a time before the last one.
  void append(double time, const std::vector<double>& x);

  /// Bytes of samples one storage block holds (at least one sample).
  static constexpr std::size_t kBlockBytes = 16 * 1024;

  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }
  int node_count() const { return node_count_; }

  const std::vector<double>& times() const { return times_; }
  double time(std::size_t i) const { return times_[i]; }

  /// Sample i of a node's voltage (ground reads 0).
  double value(NodeId node, std::size_t i) const;

  /// Linear interpolation at time t (clamped to the simulated range).
  double at(NodeId node, double t) const;

  /// Copy one signal out as a dense vector aligned with times().
  std::vector<double> signal(NodeId node) const;

  /// Sample i of an auxiliary branch current (MNA row node_count + b:
  /// voltage-source and inductor currents). Throws std::out_of_range
  /// when the appended solution vectors did not carry branch rows.
  double branch(BranchId b, std::size_t i) const;

  /// Linear interpolation of a branch current at time t.
  double branch_at(BranchId b, double t) const;

  /// Copy one branch current out as a dense vector aligned with times().
  std::vector<double> branch_signal(BranchId b) const;

  // ---- measurements ----------------------------------------------------

  /// First time the signal crosses \p level with the given edge at or
  /// after t_start. Linear interpolation between samples.
  std::optional<double> cross(NodeId node, double level, Edge edge,
                              double t_start = 0.0) const;

  /// All crossings of \p level with the given edge.
  std::vector<double> crossings(NodeId node, double level, Edge edge) const;

  /// Propagation delay: time from `from` crossing `level_from` to the
  /// next `to` crossing `level_to`, both measured at/after t_start.
  std::optional<double> delay(NodeId from, double level_from, Edge edge_from,
                              NodeId to, double level_to, Edge edge_to,
                              double t_start = 0.0) const;

  double minimum(NodeId node, double t_start = 0.0) const;
  double maximum(NodeId node, double t_start = 0.0) const;
  double peak_to_peak(NodeId node, double t_start = 0.0) const {
    return maximum(node, t_start) - minimum(node, t_start);
  }
  double final_value(NodeId node) const;

  /// Mean period between successive rising crossings of \p level after
  /// t_start (nullopt if fewer than two crossings).
  std::optional<double> period(NodeId node, double level,
                               double t_start = 0.0) const;

 private:
  int node_count_ = 0;
  std::vector<double> times_;
  // The solution vector of every time point (node voltages first, then
  // any auxiliary branch currents the engine's unknown vector carried),
  // stride_ doubles each, back to back in blocks of block_samples_
  // samples. A full block is never moved: a long run neither copies its
  // history nor holds an old and a grown buffer at once, and a block
  // stays below the size past which malloc maps a chunk on its own
  // (unless one sample alone is larger). The first block grows as
  // samples arrive, so a short waveform stays small; later ones are
  // allocated full size.
  std::size_t stride_ = 0;
  std::size_t block_samples_ = 1;
  std::vector<std::vector<double>> blocks_;

  const double* sample(std::size_t i) const {
    return blocks_[i / block_samples_].data() + (i % block_samples_) * stride_;
  }
};

}  // namespace sscl::spice
