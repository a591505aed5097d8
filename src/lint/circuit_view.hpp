#pragma once

/// \file circuit_view.hpp
/// Flattened electrical graph of a spice::Circuit assembled from the
/// Device::describe() self-descriptions. Analog ERC rules query this
/// view instead of walking devices themselves: per-node incidences and
/// the DC connected components over conductive + rigid couplings.
///
/// Slot indexing: ground (kGround == -1) occupies slot 0, node n sits
/// at slot n + 1, so every NodeId maps to a valid vector index.
///
/// Storage is flat: every device's terminals and edges sit in two
/// arrays and the incidences in one compressed-row array, so building a
/// view (which every Engine construction does, through the lint gate)
/// allocates a fixed number of times rather than per device.

#include <span>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/device.hpp"

namespace sscl::lint {

/// Rows of T packed into one array (compressed sparse rows): row r is
/// items [begin(r), begin(r + 1)). Built in two passes — count() once per
/// item, then layout(), then push() the same items in the same order —
/// so every row keeps its insertion order.
template <class T>
class Csr {
 public:
  std::span<const T> operator[](int row) const {
    return {items_.data() + begin_[row], items_.data() + begin_[row + 1]};
  }
  int rows() const { return static_cast<int>(begin_.size()) - 1; }

  void reset(int rows) {
    begin_.assign(rows + 1, 0);
    items_.clear();
  }
  void count(int row) { ++begin_[row + 1]; }
  void layout() {
    for (std::size_t r = 1; r < begin_.size(); ++r) begin_[r] += begin_[r - 1];
    items_.resize(begin_.back());
    cursor_.assign(begin_.begin(), begin_.end() - 1);
  }
  void push(int row, const T& item) { items_[cursor_[row]++] = item; }

 private:
  std::vector<int> begin_;
  std::vector<int> cursor_;
  std::vector<T> items_;
};

class CircuitView {
 public:
  explicit CircuitView(const spice::Circuit& circuit);
  // Entries hold spans into the view's own arrays.
  CircuitView(const CircuitView&) = delete;
  CircuitView& operator=(const CircuitView&) = delete;

  /// spice::DeviceInfo as the view keeps it: the same scalar fields,
  /// with the terminal and edge lists as spans into the view's flat
  /// arrays.
  struct DeviceDesc : spice::DeviceScalars {
    std::span<const spice::TerminalDesc> terminals;
    std::span<const spice::DcEdge> edges;
  };

  struct DeviceEntry {
    const spice::Device* device = nullptr;
    DeviceDesc info;
    bool described = false;  ///< Device::describe() returned true
  };

  /// One device contact at a node: either a DC edge endpoint
  /// (edge >= 0) or a bare high-impedance terminal (edge == -1,
  /// terminal indexes DeviceEntry::info.terminals).
  struct Incidence {
    int device = -1;
    int edge = -1;
    int terminal = -1;
  };

  const spice::Circuit& circuit() const { return circuit_; }
  const std::vector<DeviceEntry>& devices() const { return devices_; }
  /// False when any device could not describe itself; connectivity
  /// rules then downgrade their findings to warnings.
  bool fully_described() const { return fully_described_; }

  static int slot(spice::NodeId n) { return n + 1; }
  spice::NodeId node_of_slot(int s) const { return s - 1; }
  int slot_count() const { return incidences_.rows(); }

  std::string node_label(spice::NodeId n) const {
    return circuit_.node_name(n);
  }

  /// The node's incidences in device order; per device, its terminals
  /// first, then its edges.
  std::span<const Incidence> incidences(spice::NodeId n) const {
    return incidences_[slot(n)];
  }
  /// Number of device terminals touching the node (0 = created but
  /// never connected).
  int terminal_count(spice::NodeId n) const {
    return terminal_counts_[slot(n)];
  }

  /// Connected-component id over kConductive + kRigid edges.
  int component_of(spice::NodeId n) const { return component_[slot(n)]; }
  /// True when the node has a DC path to ground.
  bool grounded(spice::NodeId n) const {
    return component_[slot(n)] == component_[0];
  }

 private:
  const spice::Circuit& circuit_;
  std::vector<DeviceEntry> devices_;
  std::vector<spice::TerminalDesc> terminals_;  // every device's, in order
  std::vector<spice::DcEdge> edges_;            // every device's, in order
  Csr<Incidence> incidences_;                   // per slot
  std::vector<int> terminal_counts_;            // per slot
  std::vector<int> component_;                  // per slot
  bool fully_described_ = true;
};

}  // namespace sscl::lint
