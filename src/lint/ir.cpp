#include "lint/ir.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <string_view>

#include "digital/netlist.hpp"
#include "trace/trace.hpp"

namespace sscl::lint {

bool is_supply_name(const std::string& name) {
  std::string low;
  low.reserve(name.size());
  for (const char c : name) {
    low += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return low.rfind("vdd", 0) == 0 || low.rfind("vcc", 0) == 0 ||
         low.rfind("avdd", 0) == 0 || low.rfind("dvdd", 0) == 0;
}

AnalysisIR AnalysisIR::build(const CircuitView& view) {
  trace::Span span("lint.ir.circuit", "lint");
  AnalysisIR ir;
  const auto& devices = view.devices();
  const int count = static_cast<int>(devices.size());

  // Net adjacency: count, lay out, then fill in device and edge order.
  ir.net_edges.reset(view.slot_count());
  for (const CircuitView::DeviceEntry& entry : devices) {
    for (const spice::DcEdge& e : entry.info.edges) {
      if (e.coupling == spice::DcCoupling::kOpen) continue;
      ir.net_edges.count(CircuitView::slot(e.a));
      if (e.b != e.a) ir.net_edges.count(CircuitView::slot(e.b));
    }
  }
  ir.net_edges.layout();

  // MOSFETs by (source node, polarity), in device order within each
  // group.
  struct SourceTap {
    spice::NodeId source;
    bool is_nmos;
    int device;
  };
  std::vector<SourceTap> taps;
  taps.reserve(devices.size());
  for (int di = 0; di < count; ++di) {
    const CircuitView::DeviceDesc& info = devices[di].info;

    for (int ei = 0; ei < static_cast<int>(info.edges.size()); ++ei) {
      const spice::DcEdge& e = info.edges[ei];
      if (e.coupling == spice::DcCoupling::kOpen) continue;
      const int sa = CircuitView::slot(e.a);
      const int sb = CircuitView::slot(e.b);
      ir.net_edges.push(sa, {sb, di, ei, e.coupling});
      if (sb != sa) ir.net_edges.push(sb, {sa, di, ei, e.coupling});
    }

    if (info.is_mosfet && info.mos_s != spice::kGround) {
      taps.push_back({info.mos_s, info.is_nmos, di});
    }

    const std::string_view kind = info.kind;
    if (kind == "isource" && !info.edges.empty()) {
      const spice::DcEdge& e = info.edges.front();
      if (std::fabs(e.value) > 0.0) {
        ir.bias_roots.push_back({di, std::fabs(e.value), e.a, e.b});
      }
    }
    const std::string& name = devices[di].device->name();
    if (kind == "vsource" && !info.edges.empty() && is_supply_name(name)) {
      const spice::DcEdge& e = info.edges.front();
      const spice::NodeId rail =
          e.a == spice::kGround ? e.b : (e.b == spice::kGround ? e.a
                                                               : spice::kGround);
      if (rail != spice::kGround) {
        ir.supplies.push_back({di, rail, std::fabs(e.value), name});
      }
    }
  }

  std::sort(taps.begin(), taps.end(),
            [](const SourceTap& x, const SourceTap& y) {
              if (x.source != y.source) return x.source < y.source;
              if (x.is_nmos != y.is_nmos) return x.is_nmos < y.is_nmos;
              return x.device < y.device;
            });
  // Reserved up front, so the groups' spans stay valid while it fills.
  ir.group_devices.reserve(taps.size());
  for (std::size_t i = 0; i < taps.size();) {
    std::size_t j = i + 1;
    while (j < taps.size() && taps[j].source == taps[i].source &&
           taps[j].is_nmos == taps[i].is_nmos) {
      ++j;
    }
    const std::size_t first = i;
    i = j;
    if (j - first < 2) continue;
    SourceCoupledGroup group;
    group.source = taps[first].source;
    group.is_nmos = taps[first].is_nmos;
    const std::size_t offset = ir.group_devices.size();
    for (std::size_t k = first; k < j; ++k) {
      ir.group_devices.push_back(taps[k].device);
    }
    group.devices = {ir.group_devices.data() + offset, j - first};
    ir.source_groups.push_back(group);
    // Devices whose common source IS a supply rail are parallel loads
    // (e.g. the PMOS load pair of an STSCL cell), not a source-coupled
    // pair — there is no tail branch to reason about.
    bool source_is_rail = false;
    for (const SupplyRail& rail : ir.supplies) {
      source_is_rail = source_is_rail || rail.node == group.source;
    }
    if (!source_is_rail) ir.pairs.push_back(group);
  }
  return ir;
}

namespace {

/// Iterative Tarjan SCC over gate->gate edges (driver to consumer).
void tarjan_sccs(int n, const std::vector<std::vector<int>>& succs,
                 std::vector<int>& scc_of, std::vector<int>& scc_size) {
  scc_of.assign(n, -1);
  scc_size.clear();
  std::vector<int> index(n, -1);
  std::vector<int> lowlink(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<int> stack;
  int next_index = 0;

  struct Frame {
    int v;
    std::size_t child;
  };
  std::vector<Frame> frames;

  for (int root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    frames.push_back({root, 0});
    while (!frames.empty()) {
      Frame& f = frames.back();
      const int v = f.v;
      if (f.child == 0) {
        index[v] = lowlink[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = 1;
      }
      if (f.child < succs[v].size()) {
        const int w = succs[v][f.child++];
        if (index[w] == -1) {
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      if (lowlink[v] == index[v]) {
        const int id = static_cast<int>(scc_size.size());
        int count = 0;
        while (true) {
          const int w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          scc_of[w] = id;
          ++count;
          if (w == v) break;
        }
        scc_size.push_back(count);
      }
      frames.pop_back();
      if (!frames.empty()) {
        const int parent = frames.back().v;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
    }
  }
}

}  // namespace

AnalysisIR AnalysisIR::build(const digital::Netlist& nl) {
  trace::Span span("lint.ir.netlist", "lint");
  AnalysisIR ir;
  const auto& gates = nl.gates();
  const int n = static_cast<int>(gates.size());
  const int ns = nl.signal_count();

  ir.wiring_ok = true;
  ir.consumers.resize(ns);
  std::vector<std::vector<int>> succs(n);
  for (int gi = 0; gi < n; ++gi) {
    const digital::Gate& g = gates[gi];
    if (g.out < 0 || g.out >= ns || nl.driver_of(g.out) != gi) {
      ir.wiring_ok = false;
    }
    for (int i = 0; i < digital::input_count(g.kind); ++i) {
      const digital::SignalId s = g.in[i].sig;
      if (s < 0 || s >= ns) {
        ir.wiring_ok = false;
        continue;
      }
      ir.consumers[s].push_back(gi);
      const int driver = nl.driver_of(s);
      if (driver >= 0 && driver < n) succs[driver].push_back(gi);
    }
  }

  ir.lev = sta::levelize(nl);
  tarjan_sccs(n, succs, ir.scc_of, ir.scc_size);
  return ir;
}

}  // namespace sscl::lint
