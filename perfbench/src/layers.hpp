#pragma once

/// \file layers.hpp
/// Per-layer attribution of trace spans (perfbench/README.md). The
/// benchmark records its own spans around each call into a layer (the
/// names below) and reads the spans the platform already emits; this
/// file turns one trace snapshot into self times grouped by the root
/// span (one op or one serve job) they ran under.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace perfbench {

// Spans the benchmark records around its calls into each layer.
inline constexpr const char* kSpanOp = "bench.op";            // one op (root)
inline constexpr const char* kSpanLex = "bench.lex";          // netlist
inline constexpr const char* kSpanAst = "bench.ast";          // netlist
inline constexpr const char* kSpanElaborate = "bench.elaborate";  // netlist
inline constexpr const char* kSpanMeasure = "bench.measure";  // netlist
inline constexpr const char* kSpanReplica = "bench.replica";  // netlist
inline constexpr const char* kSpanEngine = "bench.engine";    // spice setup
inline constexpr const char* kSpanOpAnalysis = "bench.op_analysis";  // spice
inline constexpr const char* kSpanTran = "bench.tran";        // spice
inline constexpr const char* kSpanAc = "bench.ac";            // spice
inline constexpr const char* kSpanEnsemble = "bench.ensemble";  // device
inline constexpr const char* kSpanAdc = "bench.adc_mc";       // adc/analog

/// Spans of the platform's own vocabulary that the tables read.
inline constexpr const char* kSpanServeJob = "serve.job";

/// Self time per span name under one root span.
struct RootUsage {
  long long arg = 0;      ///< the root span's argument (op index, job id)
  double dur_ms = 0.0;    ///< the root span's own duration
  std::map<std::string, double> self_ms;   ///< by span name, root included
  std::map<std::string, double> total_ms;  ///< inclusive, by span name

  double self(const std::string& span) const { return get(self_ms, span); }
  double total(const std::string& span) const { return get(total_ms, span); }
  /// Add \p other's times into this one (durations included).
  void merge(const RootUsage& other);

 private:
  static double get(const std::map<std::string, double>& m,
                    const std::string& key) {
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  }
};

/// Walk every thread of \p snap, nest its spans by time, and return one
/// RootUsage per span named \p root (spans not under such a root are
/// ignored). A span's self time is its duration minus its direct
/// children's durations.
std::vector<RootUsage> attribute(const sscl::trace::Snapshot& snap,
                                 const std::string& root);

/// Trace state for one traced window: large rings, cleared per drain.
class TraceCapture {
 public:
  TraceCapture();
  ~TraceCapture();
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  /// Snapshot everything recorded since the last drain, then clear it.
  /// Adds the snapshot's dropped-event count to dropped().
  sscl::trace::Snapshot drain();
  unsigned long long dropped() const { return dropped_; }

 private:
  unsigned long long dropped_ = 0;
};

/// Events each thread's ring holds while a TraceCapture is open; the
/// workloads drain at least once per op (or per round of serve jobs)
/// so no ring wraps.
inline constexpr std::size_t kRingEvents = std::size_t{1} << 17;

}  // namespace perfbench
