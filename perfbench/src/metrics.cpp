#include "metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.size() < 2) {
    q.q1 = q.q3 = v.empty() ? 0.0 : v.front();
    return q;
  }
  std::sort(v.begin(), v.end());
  // statistics.quantiles(method="exclusive"): position p*(n+1), 1-based,
  // linearly interpolated and clamped to the data.
  const double n = static_cast<double>(v.size());
  auto at = [&](double p) {
    const double pos = p * (n + 1.0);
    const double j = std::floor(pos);
    const double delta = pos - j;
    const long lo = std::clamp(static_cast<long>(j), 1L,
                               static_cast<long>(v.size()));
    const long hi = std::clamp(static_cast<long>(j) + 1, 1L,
                               static_cast<long>(v.size()));
    return v[lo - 1] + delta * (v[hi - 1] - v[lo - 1]);
  };
  q.q1 = at(0.25);
  q.q3 = at(0.75);
  return q;
}

Metric timing(std::string name, const std::vector<double>& values,
              std::string unit) {
  return {std::move(name), median(values), std::move(unit),
          static_cast<long long>(values.size()), quartiles(values)};
}

Metric grouped_p50(std::string name,
                   const std::vector<std::vector<double>>& groups) {
  Metric m{std::move(name), 0.0, "ms", 0, {}};
  double log_p50 = 0.0, log_q1 = 0.0, log_q3 = 0.0, n = 0.0;
  for (const std::vector<double>& g : groups) {
    if (g.empty()) continue;
    n += 1.0;
    const Quartiles q = quartiles(g);
    log_p50 += std::log(median(g));
    log_q1 += std::log(q.q1);
    log_q3 += std::log(q.q3);
    m.samples += static_cast<long long>(g.size());
  }
  if (n > 0) {
    m.value = std::exp(log_p50 / n);
    m.iqr = {std::exp(log_q1 / n), std::exp(log_q3 / n)};
  }
  return m;
}

std::size_t samples_beyond(std::size_t n, double p) {
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

std::optional<double> percentile(std::vector<double> v, double p) {
  if (samples_beyond(v.size(), p) < 10) return std::nullopt;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

std::string result_json(const WorkloadResult& r, bool traced) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  const std::vector<Metric>& ms = traced ? r.per_layer : r.end_to_end;
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string metrics_summary(const std::vector<Metric>& ms) {
  std::string out;
  char buf[160];
  for (const Metric& m : ms) {
    std::snprintf(buf, sizeof buf, "  %-34s %14.6g %-6s", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += buf;
    if (m.samples > 1) {
      std::snprintf(buf, sizeof buf, " (%lld samples, IQR %.6g .. %.6g)",
                    m.samples, m.iqr.q1, m.iqr.q3);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this program's own address space.
  // getrusage's ru_maxrss is not: Linux carries it across execve, so a
  // small workload would report the RSS of the launching Python process.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double process_seconds() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
