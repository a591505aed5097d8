#pragma once

/// \file metrics.hpp
/// Order statistics, the metric record every workload returns, and the
/// one-line JSON result the benchmark prints last (perfbench/README.md).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Median of \p v (mean of the middle pair for even sizes); 0 for empty.
double median(std::vector<double> v);

/// First and third quartiles with the "exclusive" method Python's
/// statistics.quantiles(values, n=4) uses by default. Needs >= 2 values.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/// Nearest-rank percentile \p p (0 < p < 100) of \p v, or nothing when
/// fewer than 10 samples lie beyond it: a tail figure that rests on a
/// handful of samples is noise, so it is not reported at all.
std::optional<double> percentile(std::vector<double> v, double p);

/// Number of samples strictly beyond the nearest-rank percentile \p p.
std::size_t samples_beyond(std::size_t n, double p);

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long long samples = 0;  ///< timings: how many values the figure rests on
  Quartiles iqr;          ///< timings: Q1 and Q3 of those values
};

/// A timing figure: the median of \p values, with their count and
/// quartiles (printed to stderr beside it).
Metric timing(std::string name, const std::vector<double>& values,
              std::string unit);

/// A per-kind latency over groups of unlike ops (the decks or families
/// of one kind): the geometric mean of each group's own median, and of
/// each group's quartiles (empty groups skipped). A pooled median would
/// be one group's time alone; this moves by each group's share when any
/// group changes.
Metric grouped_p50(std::string name,
                   const std::vector<std::vector<double>>& groups);

/// What one workload run hands back to main().
struct WorkloadResult {
  long long attempted = 0;  ///< ops started in the timed window
  long long failed = 0;     ///< non-ok replies, BUSY, exceptions, check misses
  std::vector<Metric> end_to_end;  ///< untraced figures
  std::vector<Metric> per_layer;   ///< traced figures (trace runs only)

  double fail_ratio() const {
    return attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  }
};

/// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
/// with every value printed to 17 significant digits.
std::string result_json(const WorkloadResult& r, bool traced);

/// Human-readable lines of \p ms ("name value unit (n samples, IQR q1
/// .. q3)") for stderr; the JSON line carries only values and units.
std::string metrics_summary(const std::vector<Metric>& ms);

/// Peak resident set of this process [MB].
double peak_rss_mb();

/// Seconds on the steady clock since the first call in this process
/// (main() calls it first thing, so it reads as time since start-up).
double process_seconds();

}  // namespace perfbench
