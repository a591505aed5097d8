#pragma once

/// \file circuit.hpp
/// Circuit: the netlist container. Owns devices, maps node names to
/// NodeIds and performs elaboration (branch/state allocation).

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spice/device.hpp"
#include "spice/types.hpp"

namespace sscl::spice {

/// Solved unknown vector with typed accessors. Node voltages occupy
/// x[0..node_count), branch currents follow.
class Solution {
 public:
  Solution() = default;
  Solution(std::vector<double> x, int node_count)
      : x_(std::move(x)), node_count_(node_count) {}

  double v(NodeId n) const { return n == kGround ? 0.0 : x_[n]; }
  double branch_current(BranchId b) const { return x_[node_count_ + b]; }
  int node_count() const { return node_count_; }
  bool empty() const { return x_.empty(); }
  const std::vector<double>& raw() const { return x_; }
  std::vector<double>& raw() { return x_; }

 private:
  std::vector<double> x_;
  int node_count_ = 0;
};

/// True when \p name (any case) is an alias of the ground node: "0",
/// "gnd", "gnd!", "ground", "vss!". Shared by Circuit and the deck
/// parser so hierarchical netlist expansion cannot turn a ground alias
/// into a phantom local node.
bool is_ground_name(std::string_view name);

/// Hashes std::string and std::string_view alike, so an unordered_map
/// keyed by std::string is searched by view without building a key.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

class Circuit {
 public:
  Circuit() = default;

  /// Get-or-create the node with this name. Ground aliases (see
  /// is_ground_name) all map to kGround.
  NodeId node(std::string_view name);

  /// Create a fresh, uniquely named internal node.
  NodeId internal_node(std::string_view prefix);

  /// Look up an existing node.
  std::optional<NodeId> find_node(std::string_view name) const;

  /// Name of a node (ground reports "0").
  const std::string& node_name(NodeId n) const;

  int node_count() const { return static_cast<int>(node_names_.size()); }

  /// Construct a device in place and keep ownership. Returns a non-owning
  /// pointer valid for the circuit's lifetime.
  template <typename T, typename... Args>
  T* add(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = owned.get();
    add_device(std::move(owned));
    return raw;
  }

  Device* add_device(std::unique_ptr<Device> device);

  /// Find a device by instance name, case-insensitively like node
  /// names (nullptr if absent).
  Device* find_device(std::string_view name) const;

  const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }

  /// Run setup on devices added since the last elaboration, assigning
  /// branch rows and state slots. Safe to call repeatedly.
  void elaborate();

  int branch_count() const { return branch_count_; }
  int state_count() const { return state_count_; }
  /// MNA dimension: nodes + auxiliary branches.
  int unknown_count() const { return node_count() + branch_count_; }

 private:
  std::vector<std::unique_ptr<Device>> devices_;
  std::unordered_map<std::string, NodeId, NameHash, std::equal_to<>> node_ids_;
  std::vector<std::string> node_names_;
  std::size_t elaborated_upto_ = 0;
  int branch_count_ = 0;
  int state_count_ = 0;
  int internal_counter_ = 0;
};

}  // namespace sscl::spice
