/// Default pass registry. An explicit factory list (rather than static
/// self-registration) so passes cannot be dead-stripped out of the
/// static library — and so the order is deterministic: structural rules
/// first, then bias heuristics, then digital DRC, then the
/// interprocedural dataflow passes. A lint run (check.cpp) executes the
/// passes in this order, which is also the order of the Report.

#include "lint/rule.hpp"
#include "lint/rules/rules.hpp"

namespace sscl::lint {

std::vector<std::unique_ptr<Rule>> make_default_passes() {
  std::vector<std::unique_ptr<Rule>> out;
  // Analog ERC.
  out.push_back(rules::make_element_value_rule());
  out.push_back(rules::make_dc_path_rule());
  out.push_back(rules::make_vsource_loop_rule());
  out.push_back(rules::make_dangling_terminal_rule());
  out.push_back(rules::make_unused_node_rule());
  // Subthreshold bias heuristics.
  out.push_back(rules::make_unbiased_tail_rule());
  out.push_back(rules::make_weak_inversion_rule());
  // Digital DRC.
  out.push_back(rules::make_multi_driven_rule());
  out.push_back(rules::make_undriven_signal_rule());
  out.push_back(rules::make_unconnected_input_rule());
  out.push_back(rules::make_comb_loop_rule());
  out.push_back(rules::make_latch_phase_rule());
  out.push_back(rules::make_dead_output_rule());
  // Static-timing backed DRC (runs the sta engine internally).
  out.push_back(rules::make_latch_depth_imbalance_rule());
  out.push_back(rules::make_zero_slack_phase_rule());
  // Interprocedural dataflow passes.
  out.push_back(rules::make_bias_provenance_pass());
  out.push_back(rules::make_domain_crossing_pass());
  out.push_back(rules::make_const_net_pass());
  out.push_back(rules::make_phase_domain_pass());
  // Interval abstract interpretation (operating-region certification).
  out.push_back(rules::make_op_region_pass());
  return out;
}

}  // namespace sscl::lint
