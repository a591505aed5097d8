#include "layers.hpp"

#include <algorithm>

namespace perfbench {

std::vector<RootUsage> attribute(const sscl::trace::Snapshot& snap,
                                 const std::string& root) {
  std::vector<RootUsage> roots;
  for (const sscl::trace::ThreadSnapshot& thread : snap.threads) {
    std::vector<const sscl::trace::Event*> events;
    events.reserve(thread.events.size());
    for (const auto& e : thread.events) events.push_back(&e);
    // Parents before children: earlier start first, longer span first.
    std::sort(events.begin(), events.end(), [](const auto* a, const auto* b) {
      if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
      return a->dur_ns > b->dur_ns;
    });
    struct Open {
      std::uint64_t end_ns;
      std::string name;
      double dur_ms;
      double child_ms;
      long long root;  // index into roots, -1 = not under a root
    };
    std::vector<Open> stack;
    auto pop = [&] {
      const Open& o = stack.back();
      if (o.root >= 0) {
        roots[o.root].self_ms[o.name] += o.dur_ms - o.child_ms;
        roots[o.root].total_ms[o.name] += o.dur_ms;
      }
      stack.pop_back();
    };
    for (const sscl::trace::Event* e : events) {
      while (!stack.empty() && stack.back().end_ns <= e->start_ns) pop();
      const double dur_ms = static_cast<double>(e->dur_ns) * 1e-6;
      long long root_index = stack.empty() ? -1 : stack.back().root;
      if (!stack.empty()) stack.back().child_ms += dur_ms;
      const std::string name = e->name ? e->name : "";
      if (name == root) {
        RootUsage usage;
        usage.arg = e->arg;
        usage.dur_ms = dur_ms;
        roots.push_back(std::move(usage));
        root_index = static_cast<long long>(roots.size()) - 1;
      }
      stack.push_back({e->start_ns + e->dur_ns, name, dur_ms, 0.0, root_index});
    }
    while (!stack.empty()) pop();
  }
  return roots;
}

void RootUsage::merge(const RootUsage& other) {
  dur_ms += other.dur_ms;
  for (const auto& [k, v] : other.self_ms) self_ms[k] += v;
  for (const auto& [k, v] : other.total_ms) total_ms[k] += v;
}

TraceCapture::TraceCapture() {
  sscl::trace::set_ring_capacity(kRingEvents);
  sscl::trace::reset();
  sscl::trace::enable();
}

TraceCapture::~TraceCapture() {
  sscl::trace::disable();
  sscl::trace::reset();
}

sscl::trace::Snapshot TraceCapture::drain() {
  sscl::trace::Snapshot snap = sscl::trace::snapshot();
  dropped_ += snap.total_dropped();
  sscl::trace::reset();
  return snap;
}

}  // namespace perfbench
