#include "workloads.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "lint/check.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_schema() {
  static const std::vector<std::pair<std::string, std::string>> schema = {
      // Collection health and the run's own outcome.
      {"trace.dropped", "count"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
      {"fail_ratio", "ratio"},
      // netlist (self ms per op)
      {"netlist.lex_ms", "ms"},
      {"netlist.ast_ms", "ms"},
      {"netlist.elaborate_ms", "ms"},
      {"netlist.measure_ms", "ms"},
      {"netlist.elements", "count"},
      {"netlist.elaborate_us_per_element", "us"},
      // lint (the lint.run span inside Engine construction)
      {"lint.ms", "ms"},
      // spice: phases per op, self times, exact counters, inputs
      {"spice.setup_ms", "ms"},
      {"spice.op_ms", "ms"},
      {"spice.tran_ms", "ms"},
      {"spice.ac_ms", "ms"},
      {"spice.newton_ms", "ms"},
      {"spice.baseline_ms", "ms"},
      {"spice.assemble_ms", "ms"},
      {"spice.factor_ms", "ms"},
      {"spice.timestep_ms", "ms"},
      {"spice.fabric_op_ms", "ms"},
      {"spice.fabric_factor_ms", "ms"},
      {"spice.newton_iterations", "count"},
      {"spice.device_evals", "count"},
      {"spice.bypass_hits", "count"},
      {"spice.bypass_rate", "ratio"},
      {"spice.full_factors", "count"},
      {"spice.numeric_refactors", "count"},
      {"spice.singular_factors", "count"},
      {"spice.transient_steps", "count"},
      {"spice.transient_rejects_lte", "count"},
      {"spice.transient_rejects_newton", "count"},
      {"spice.gmin_steps", "count"},
      {"spice.source_steps", "count"},
      {"spice.us_per_step", "us"},
      {"spice.us_per_factor", "us"},
      {"spice.unknowns", "count"},
      {"spice.pattern_entries", "count"},
      {"spice.sparse", "bool"},
      // device: ensemble lanes
      {"ensemble.ms", "ms"},
      {"ensemble.samples_per_s", "1/s"},
      {"ensemble.batched_share", "ratio"},
      {"ensemble.lane_iterations", "count"},
      {"ensemble.soa_batches", "count"},
      {"ensemble.factor_adoptions", "count"},
      // adc/analog behavioural Monte Carlo
      {"adc.mc_ms", "ms"},
      {"adc.conversions_per_s", "1/s"},
      {"adc.instances", "count"},
      // serve
      {"serve.transport_ms", "ms"},
      {"serve.lex_hash_ms", "ms"},
      {"serve.elaborate_ms", "ms"},
      {"serve.analysis_ms", "ms"},
      {"serve.measures_ms", "ms"},
      {"serve.payload_bytes", "bytes"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p99_ms", "ms"},
      {"serve.cold_param_ms", "ms"},
      {"serve.cold_param_elaborate_ms", "ms"},
      {"serve.op_p50_ms", "ms"},
      {"serve.op_p99_ms", "ms"},
      {"serve.edit_p50_ms", "ms"},
      {"serve.cache.hit.elab", "count"},
      {"serve.cache.hit.pattern", "count"},
      {"serve.cache.miss", "count"},
      {"serve.cache.evictions", "count"},
      {"serve.hit_ratio", "ratio"},
      {"serve.admission.rejects", "count"},
  };
  return schema;
}

void LayerTable::set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

std::vector<Metric> LayerTable::metrics() const {
  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_schema()) {
    double value = 0.0;
    for (const auto& [n, v] : values_) {
      if (n == name) value = v;
    }
    out.push_back({name, value, unit, 0, {}});
  }
  for (const auto& [n, v] : values_) {
    bool known = false;
    for (const auto& entry : per_layer_schema()) known |= entry.first == n;
    if (!known) throw std::logic_error("per-layer metric not in schema: " + n);
  }
  return out;
}

void fill_span_layers(const RootUsage& sum, long long ops, LayerTable& t) {
  const double per = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  t.set("netlist.lex_ms", sum.self(kSpanLex) * per);
  t.set("netlist.ast_ms", sum.self(kSpanAst) * per);
  // The ensemble re-parses its deck for every replica: netlist work.
  t.set("netlist.elaborate_ms",
        (sum.self(kSpanElaborate) + sum.total(kSpanReplica)) * per);
  t.set("netlist.measure_ms", sum.self(kSpanMeasure) * per);
  const double lint = sum.total("lint.run");
  t.set("lint.ms", lint * per);
  t.set("spice.setup_ms", (sum.total(kSpanEngine) - lint) * per);
  t.set("spice.op_ms", sum.total(kSpanOpAnalysis) * per);
  t.set("spice.tran_ms", sum.total(kSpanTran) * per);
  t.set("spice.ac_ms", sum.total(kSpanAc) * per);
  t.set("spice.newton_ms", sum.self("newton") * per);
  t.set("spice.baseline_ms", sum.self("baseline") * per);
  t.set("spice.assemble_ms", sum.self("assemble") * per);
  t.set("spice.factor_ms", sum.self("factor") * per);
  t.set("spice.timestep_ms", sum.self("timestep") * per);
  t.set("ensemble.ms",
        (sum.total(kSpanEnsemble) - sum.total(kSpanReplica)) * per);
  t.set("adc.mc_ms", sum.total(kSpanAdc) * per);
  // Covered = op time inside any named layer span.
  t.set("trace.coverage",
        sum.dur_ms > 0 ? 1.0 - sum.self(kSpanOp) / sum.dur_ms : 0.0);
}

std::vector<double> cycle_rates(const std::vector<double>& cycle_seconds,
                                long long ops_per_cycle) {
  std::vector<double> rates;
  for (double s : cycle_seconds) {
    if (s > 0) rates.push_back(static_cast<double>(ops_per_cycle) / s);
  }
  return rates;
}

CpuRotation::CpuRotation() : since_(std::chrono::steady_clock::now()) {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() > 1) sched_setaffinity(0, sizeof allowed_, &allowed_);
}

void CpuRotation::between_ops() {
  if (cpus_.size() < 2) return;
  const auto now = std::chrono::steady_clock::now();
  if (now - since_ < kCpuSlice) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
  since_ = now;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

int lint_findings(const std::string& text,
                  const sscl::netlist::ParseOptions& parse) {
  const sscl::netlist::Deck deck = sscl::netlist::parse_netlist(text, parse);
  const sscl::lint::Report report = sscl::lint::check_circuit(*deck.circuit);
  return report.count(sscl::lint::Severity::kWarning) + report.error_count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace perfbench
