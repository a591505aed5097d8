#include "spice/circuit.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace sscl::spice {

namespace {
char lower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

std::string lowercase(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = lower(c);
  return out;
}

/// \p name lowercased: itself when it already is, else a copy in
/// \p storage.
std::string_view folded(std::string_view name, std::string& storage) {
  if (std::none_of(name.begin(), name.end(),
                   [](char c) { return lower(c) != c; })) {
    return name;
  }
  storage = lowercase(name);
  return storage;
}

const std::string kGroundName = "0";
}  // namespace

bool is_ground_name(std::string_view name) {
  for (const std::string_view alias : {"0", "gnd", "gnd!", "ground", "vss!"}) {
    if (name.size() == alias.size() &&
        std::equal(name.begin(), name.end(), alias.begin(),
                   [](char a, char b) { return lower(a) == b; })) {
      return true;
    }
  }
  return false;
}

NodeId Circuit::node(std::string_view name) {
  if (is_ground_name(name)) return kGround;
  std::string storage;
  const std::string_view key = folded(name, storage);
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
  std::string storage;
  auto it = node_ids_.find(folded(name, storage));
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
