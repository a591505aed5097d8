/// Zero-slack-phase DRC (warning): at the maximum clock of a two-phase
/// latch pipeline the binding latch has zero slack by definition — but
/// when every latch of the *other* phase still has a large fraction of
/// its half-period spare, the phase budget is lopsided: logic should
/// move across the phase boundary (or the duty cycle should shift) so
/// both phases share the burden. Runs the classic static timing
/// analysis at the analytic fmax and compares worst slack per phase.
/// Only meaningful for real pipelines, so small netlists are skipped.

#include <algorithm>
#include <string>

#include "digital/netlist.hpp"
#include "lint/rules/rules.hpp"
#include "sta/sta.hpp"

namespace sscl::lint::rules {

namespace {

constexpr int kMinLatches = 8;     // skip toy pipelines
constexpr int kMinPerPhase = 4;    // both phases must really be used
constexpr double kIdleFrac = 0.4;  // idle-phase margin vs half-period

class ZeroSlackPhaseRule final : public Rule {
 public:
  const char* id() const override { return "zero-slack-phase"; }
  const char* description() const override {
    return "at fmax one clock phase is binding while the other has large "
           "spare slack";
  }

  void run(const LintContext& ctx, Report& report) const override {
    if (!ctx.netlist) return;
    sta::TimingReport rep;
    try {
      sta::StaOptions opt;
      opt.lint = false;  // we are already inside the lint run
      const double iss = 1e-9;
      const stscl::SclModel model;
      const double fmax = sta::sta_fmax(*ctx.netlist, model, iss, opt);
      rep = sta::analyze(*ctx.netlist, model, iss, 1.0 / fmax, opt);
    } catch (const std::exception&) {
      return;  // no latches or broken wiring; other rules report that
    }
    if (static_cast<int>(rep.latches.size()) < kMinLatches) return;
    int per_phase[2] = {0, 0};
    for (const auto& lt : rep.latches) ++per_phase[lt.phase ? 1 : 0];
    if (std::min(per_phase[0], per_phase[1]) < kMinPerPhase) return;

    const double half = rep.period / 2;
    const double sh = rep.worst_slack_of_phase(true);
    const double sl = rep.worst_slack_of_phase(false);
    const bool binding_high = sh < sl;
    const double idle = std::max(sh, sl);
    if (idle < kIdleFrac * half) return;
    report.warning(
        id(), binding_high ? "phase high" : "phase low",
        "at fmax this phase is binding while phase " +
            std::string(binding_high ? "low" : "high") + " keeps " +
            std::to_string(static_cast<int>(100.0 * idle / half)) +
            "% of its half-period spare; rebalance logic across the "
            "phase boundary");
  }
};

}  // namespace

std::unique_ptr<Rule> make_zero_slack_phase_rule() {
  return std::make_unique<ZeroSlackPhaseRule>();
}

}  // namespace sscl::lint::rules
