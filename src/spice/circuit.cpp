#include "spice/circuit.hpp"

#include <cctype>
#include <stdexcept>

namespace sscl::spice {

namespace {
std::string lowercase(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

const std::string kGroundName = "0";
}  // namespace

bool is_ground_name(std::string_view name) {
  const std::string lower = lowercase(name);
  return lower == "0" || lower == "gnd" || lower == "gnd!" ||
         lower == "ground" || lower == "vss!";
}

NodeId Circuit::node(std::string_view name) {
  if (is_ground_name(name)) return kGround;
  const std::string key = lowercase(name);
  auto it = node_ids_.find(key);
  if (it != node_ids_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_ids_.emplace(key, id);
  node_names_.emplace_back(key);
  return id;
}

NodeId Circuit::internal_node(std::string_view prefix) {
  for (;;) {
    std::string candidate = std::string(prefix) + "#" + std::to_string(internal_counter_++);
    if (!node_ids_.contains(lowercase(candidate))) return node(candidate);
  }
}

std::optional<NodeId> Circuit::find_node(std::string_view name) const {
  if (is_ground_name(name)) return kGround;
  const std::string key = lowercase(name);
  auto it = node_ids_.find(key);
  if (it == node_ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& Circuit::node_name(NodeId n) const {
  if (n == kGround) return kGroundName;
  return node_names_.at(static_cast<std::size_t>(n));
}

Device* Circuit::add_device(std::unique_ptr<Device> device) {
  if (!device) throw std::invalid_argument("Circuit::add_device: null device");
  devices_.push_back(std::move(device));
  return devices_.back().get();
}

Device* Circuit::find_device(std::string_view name) const {
  const std::string key = lowercase(name);
  for (const auto& d : devices_) {
    if (lowercase(d->name()) == key) return d.get();
  }
  return nullptr;
}

void Circuit::elaborate() {
  SetupContext ctx(*this, branch_count_, state_count_);
  for (; elaborated_upto_ < devices_.size(); ++elaborated_upto_) {
    devices_[elaborated_upto_]->setup(ctx);
  }
}

}  // namespace sscl::spice
