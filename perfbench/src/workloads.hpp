#pragma once

/// \file workloads.hpp
/// The three benchmark workloads (perfbench/README.md) and what they
/// share: run configuration, the timed-window loop bookkeeping and the
/// per-layer metric table every traced run prints.

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "layers.hpp"
#include "metrics.hpp"
#include "netlist/netlist.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< timed window (split in half when traced)
  bool trace = false;     ///< print per-layer metrics instead of end-to-end
  /// Negative self-test: corrupt every reference the checks compare
  /// against, so a working check must report failures.
  bool corrupt_reference = false;
  std::string root = ".";  ///< checkout root (committed decks and CSVs)
  std::string work_dir;    ///< writable scratch directory in the checkout
};

WorkloadResult run_serve_mix(const RunConfig& config);
/// Whether a serve reply (every line through `END <status>`) counts as
/// a success: `END ok` only, so BUSY, errors, cancellations and
/// timeouts all count in fail_ratio.
bool reply_succeeded(const std::vector<std::string>& lines);
/// Whether a job's payload lines (the reply without its envelope) match
/// a fresh daemon's cold reply \p reference. Cold and warm jobs must
/// match byte for byte. A pattern-tier hit solves with another deck's
/// pivot order, which docs/SERVE.md states is reproducible within
/// Newton tolerance only: node-voltage rows may then differ by reltol
/// of the reference value plus 10 x vntol, every other number
/// (`.measure` values, point counts) by reltol alone, since a 10 ns
/// delay or a 0.1 pJ energy sits far below any voltage tolerance.
bool payload_matches(const std::string& payload, const std::string& reference,
                     bool pattern_tier);
WorkloadResult run_tran_stscl(const RunConfig& config);
WorkloadResult run_mc_yield(const RunConfig& config);

/// Names, units and order of every per-layer metric (BENCHMARK.json
/// lists the same). A traced run of any workload prints all of them;
/// layers a workload does not use read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_schema();

/// Collects per-layer figures by name and emits them in schema order.
class LayerTable {
 public:
  void set(const std::string& name, double value);
  std::vector<Metric> metrics() const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Fill the netlist/lint/spice/device/adc rows and trace.coverage from
/// the summed usage of \p ops traced ops rooted at bench.op spans. Phase
/// rows (op/tran/ac, lint, setup, ensemble, adc) are inclusive times,
/// the engine's inner spans (newton, baseline, ...) self times; all are
/// milliseconds per op.
void fill_span_layers(const RootUsage& sum, long long ops, LayerTable& table);

/// Ops per second of each schedule cycle of a window. Every cycle does
/// the same work, so their median (ops_per_s) shrugs off the rare host
/// stall that a plain ops / elapsed ratio averages in.
std::vector<double> cycle_rates(const std::vector<double>& cycle_seconds,
                                long long ops_per_cycle);

/// Moves a single-thread workload from CPU to CPU: between ops, once
/// the thread has run kCpuSlice on one CPU, it is pinned to the next
/// CPU this process may use, and the destructor restores the original
/// set. A VM's vCPUs differ in speed at any moment (their host cores are
/// shared with other tenants) and each keeps its speed for seconds, so a
/// thread that stays on one vCPU for a whole run measures that vCPU.
/// serve_mix needs none: its threads wake on whichever CPU is free.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Call between ops; best effort, a refused pin changes nothing.
  void between_ops();

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  std::chrono::steady_clock::time_point since_;
};

/// Long enough that a migration (cold caches on the new CPU) costs well
/// under 1% of it, short enough that a 20 s run visits every vCPU often.
inline constexpr std::chrono::milliseconds kCpuSlice{50};

/// FNV-1a over bytes; the benchmark's digest of large outputs.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/// Warnings plus errors lint reports on the elaborated \p text; every
/// generated deck must have none (checked during set-up).
int lint_findings(const std::string& text,
                  const sscl::netlist::ParseOptions& parse);

/// Read a whole file; throws std::runtime_error when it cannot.
std::string read_file(const std::string& path);

}  // namespace perfbench
