#include "lint/circuit_view.hpp"

#include <numeric>
#include <span>
#include <vector>

namespace sscl::lint {

namespace {
int find_root(std::vector<int>& parent, int i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];
    i = parent[i];
  }
  return i;
}
}  // namespace

CircuitView::CircuitView(const spice::Circuit& circuit) : circuit_(circuit) {
  const int slots = circuit.node_count() + 1;
  terminal_counts_.assign(slots, 0);

  // Describe every device into one reused DeviceInfo and append its
  // lists to the flat arrays; the spans are set once the arrays stop
  // growing.
  const auto& circuit_devices = circuit.devices();
  const int count = static_cast<int>(circuit_devices.size());
  devices_.resize(circuit_devices.size());
  std::vector<int> list_sizes(2 * circuit_devices.size());
  spice::DeviceInfo scratch;
  for (int di = 0; di < count; ++di) {
    // Back to a default DeviceInfo, keeping the lists' capacity so the
    // next describe() allocates nothing.
    static_cast<spice::DeviceScalars&>(scratch) = {};
    scratch.terminals.clear();
    scratch.edges.clear();
    DeviceEntry& entry = devices_[di];
    entry.device = circuit_devices[di].get();
    entry.described = entry.device->describe(scratch);
    if (!entry.described) fully_described_ = false;
    static_cast<spice::DeviceScalars&>(entry.info) = scratch;
    terminals_.insert(terminals_.end(), scratch.terminals.begin(),
                      scratch.terminals.end());
    edges_.insert(edges_.end(), scratch.edges.begin(), scratch.edges.end());
    list_sizes[2 * di] = static_cast<int>(scratch.terminals.size());
    list_sizes[2 * di + 1] = static_cast<int>(scratch.edges.size());
  }
  std::size_t t = 0, e = 0;
  for (int di = 0; di < count; ++di) {
    DeviceDesc& info = devices_[di].info;
    info.terminals = {terminals_.data() + t,
                      static_cast<std::size_t>(list_sizes[2 * di])};
    info.edges = {edges_.data() + e,
                  static_cast<std::size_t>(list_sizes[2 * di + 1])};
    t += info.terminals.size();
    e += info.edges.size();
  }

  // Incidences per slot: count, lay out, then fill in the same order.
  incidences_.reset(slots);
  for (const DeviceEntry& entry : devices_) {
    for (const spice::TerminalDesc& term : entry.info.terminals) {
      incidences_.count(slot(term.node));
    }
    for (const spice::DcEdge& edge : entry.info.edges) {
      incidences_.count(slot(edge.a));
      if (edge.b != edge.a) incidences_.count(slot(edge.b));
    }
  }
  incidences_.layout();

  std::vector<int> parent(slots);
  std::iota(parent.begin(), parent.end(), 0);

  for (int di = 0; di < count; ++di) {
    const DeviceDesc& info = devices_[di].info;
    for (int ti = 0; ti < static_cast<int>(info.terminals.size()); ++ti) {
      const int s = slot(info.terminals[ti].node);
      ++terminal_counts_[s];
      incidences_.push(s, {di, -1, ti});
    }
    for (int ei = 0; ei < static_cast<int>(info.edges.size()); ++ei) {
      const spice::DcEdge& edge = info.edges[ei];
      incidences_.push(slot(edge.a), {di, ei, -1});
      if (edge.b != edge.a) incidences_.push(slot(edge.b), {di, ei, -1});
      if (edge.coupling == spice::DcCoupling::kConductive ||
          edge.coupling == spice::DcCoupling::kRigid) {
        const int ra = find_root(parent, slot(edge.a));
        const int rb = find_root(parent, slot(edge.b));
        if (ra != rb) parent[ra] = rb;
      }
    }
  }

  component_.resize(slots);
  for (int s = 0; s < slots; ++s) component_[s] = find_root(parent, s);
}

}  // namespace sscl::lint
