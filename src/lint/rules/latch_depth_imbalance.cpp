/// Latch-depth-imbalance DRC (warning): in a two-phase latch pipeline
/// every stage gets the same half-period, so the achievable clock is set
/// by the deepest stage alone. A stage whose logic depth exceeds the
/// shallowest stage by two or more gates means the pipeline is paying
/// for depth it doesn't use — retiming logic across the latch boundary
/// would raise fmax at zero hardware cost (paper Section III-B trades
/// exactly this NL against fop).

#include <algorithm>
#include <string>
#include <vector>

#include "digital/netlist.hpp"
#include "lint/rules/rules.hpp"
#include "sta/timing_graph.hpp"

namespace sscl::lint::rules {

namespace {

constexpr int kImbalanceThreshold = 2;

class LatchDepthImbalanceRule final : public Rule {
 public:
  const char* id() const override { return "latch-depth-imbalance"; }
  const char* description() const override {
    return "pipeline stage logic depths differ by 2+ gates; retime the "
           "deep stage";
  }

  void run(const LintContext& ctx, Report& report) const override {
    if (!ctx.netlist) return;
    sta::TimingGraph tg;
    try {
      tg = sta::build_timing_graph(*ctx.netlist, stscl::SclModel{}, 1e-9);
    } catch (const std::exception&) {
      return;  // structurally broken; the wiring rules name the defect
    }
    if (tg.max_rank < 2) return;

    std::vector<int> depth(tg.max_rank + 1, 0);
    for (const int gi : tg.latches) {
      const sta::GateTiming& t = tg.gate[gi];
      depth[t.rank] = std::max(depth[t.rank], t.depth);
    }
    int deep = 1;
    int shallow = 1;
    for (int r = 2; r <= tg.max_rank; ++r) {
      if (depth[r] > depth[deep]) deep = r;
      if (depth[r] < depth[shallow]) shallow = r;
    }
    if (depth[deep] - depth[shallow] < kImbalanceThreshold) return;
    report.warning(
        id(), "stage " + std::to_string(deep),
        "stage depth " + std::to_string(depth[deep]) + " vs depth " +
            std::to_string(depth[shallow]) + " at stage " +
            std::to_string(shallow) +
            "; fmax is set by the deep stage alone — retime logic across "
            "the latch boundary");
  }
};

}  // namespace

std::unique_ptr<Rule> make_latch_depth_imbalance_rule() {
  return std::make_unique<LatchDepthImbalanceRule>();
}

}  // namespace sscl::lint::rules
