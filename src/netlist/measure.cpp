#include "netlist/measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "netlist/expr.hpp"
#include "spice/elements.hpp"

namespace sscl::netlist {

namespace {

/// A probe resolved against one analysis: y(x) samples on a shared,
/// monotonically non-decreasing x axis (time for tran, the swept value
/// for dc).
struct Series {
  std::vector<double> xs;
  std::vector<double> ys;
};

/// Thrown internally to turn one measure into an error result without
/// aborting the others.
struct MeasureFail {
  std::string reason;
};

[[noreturn]] void fail(std::string reason) { throw MeasureFail{std::move(reason)}; }

/// The auxiliary MNA branch of a device, for i(...) probes. Only
/// voltage sources and inductors carry their current as an unknown.
spice::BranchId current_branch(const spice::Circuit& circuit,
                               const std::string& ref) {
  const spice::Device* found = circuit.find_device(ref);
  if (!found) fail("unknown device '" + ref + "' in i(...)");
  if (const auto* v = dynamic_cast<const spice::VoltageSource*>(found)) {
    return v->branch();
  }
  if (const auto* l = dynamic_cast<const spice::Inductor*>(found)) {
    return l->branch();
  }
  fail("'" + ref + "' has no branch current (i(...) needs a V source or L)");
}

Series resolve(const Probe& probe, MeasureSpec::Analysis analysis,
               const MeasureInput& input) {
  Series s;
  if (analysis == MeasureSpec::Analysis::kTran) {
    if (!input.tran || input.tran->empty()) {
      fail("no transient waveform to measure");
    }
    s.xs = input.tran->times();
    if (probe.type == Probe::Type::kVoltage) {
      const auto node = input.circuit->find_node(probe.ref);
      if (!node) fail("unknown node '" + probe.ref + "'");
      s.ys = input.tran->signal(*node);
    } else {
      const spice::BranchId b = current_branch(*input.circuit, probe.ref);
      try {
        s.ys = input.tran->branch_signal(b);
      } catch (const std::out_of_range&) {
        fail("waveform carries no branch currents");
      }
    }
  } else {
    if (!input.dc || input.dc->values.empty()) {
      fail("no dc sweep to measure");
    }
    s.xs = input.dc->values;
    if (probe.type == Probe::Type::kVoltage) {
      const auto node = input.circuit->find_node(probe.ref);
      if (!node) fail("unknown node '" + probe.ref + "'");
      s.ys = input.dc->voltage(*node);
    } else {
      s.ys = input.dc->current(current_branch(*input.circuit, probe.ref));
    }
  }
  return s;
}

/// Linear interpolation, clamped to the sampled range.
double interp(const Series& s, double x) {
  if (x <= s.xs.front()) return s.ys.front();
  if (x >= s.xs.back()) return s.ys.back();
  const auto it = std::upper_bound(s.xs.begin(), s.xs.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - s.xs.begin());
  const std::size_t lo = hi - 1;
  const double span = s.xs[hi] - s.xs[lo];
  const double frac = span > 0 ? (x - s.xs[lo]) / span : 0.0;
  return s.ys[lo] + frac * (s.ys[hi] - s.ys[lo]);
}

/// The x of the n-th level crossing with the requested edge at or after
/// \p after (linear interpolation inside the bracketing segment).
double nth_crossing(const Series& s, const MeasureSpec::Event& ev,
                    const char* what) {
  int remaining = std::max(1, ev.count);
  for (std::size_t i = 1; i < s.xs.size(); ++i) {
    if (s.xs[i] < ev.td) continue;
    const double y0 = s.ys[i - 1], y1 = s.ys[i];
    const bool rise = y0 < ev.level && y1 >= ev.level;
    const bool fall = y0 > ev.level && y1 <= ev.level;
    const bool match = (ev.edge == MeasureSpec::EdgeSel::kRise && rise) ||
                       (ev.edge == MeasureSpec::EdgeSel::kFall && fall) ||
                       (ev.edge == MeasureSpec::EdgeSel::kCross &&
                        (rise || fall));
    if (!match) continue;
    const double frac = (ev.level - y0) / (y1 - y0);
    const double x = s.xs[i - 1] + frac * (s.xs[i] - s.xs[i - 1]);
    if (x < ev.td) continue;
    if (--remaining == 0) return x;
  }
  fail(std::string(what) + " event not found (level never crossed)");
}

struct Window {
  double lo = 0.0, hi = 0.0;
};

Window clip_window(const Series& s, double from, double to) {
  Window w;
  w.lo = std::max(from, s.xs.front());
  w.hi = to < 0.0 ? s.xs.back() : std::min(to, s.xs.back());
  if (w.hi < w.lo) fail("measure window is empty");
  return w;
}

/// Trapezoidal integral of f(y) over the clipped window, interpolated
/// window endpoints included.
template <typename Fn>
double integrate(const Series& s, const Window& w, Fn f) {
  double acc = 0.0;
  double x_prev = w.lo;
  double y_prev = f(interp(s, w.lo));
  for (std::size_t i = 0; i < s.xs.size(); ++i) {
    if (s.xs[i] <= w.lo) continue;
    const double x = std::min(s.xs[i], w.hi);
    const double y = x < s.xs[i] ? f(interp(s, x)) : f(s.ys[i]);
    acc += 0.5 * (y_prev + y) * (x - x_prev);
    x_prev = x;
    y_prev = y;
    if (s.xs[i] >= w.hi) break;
  }
  return acc;
}

double eval_stat(const MeasureSpec& m, const Series& s) {
  const Window w = clip_window(s, m.from, m.to);
  const double width = w.hi - w.lo;
  switch (m.stat) {
    case MeasureSpec::Stat::kInteg:
      return integrate(s, w, [](double y) { return y; });
    case MeasureSpec::Stat::kAvg:
      if (width <= 0.0) fail("AVG needs a non-empty window");
      return integrate(s, w, [](double y) { return y; }) / width;
    case MeasureSpec::Stat::kRms:
      if (width <= 0.0) fail("RMS needs a non-empty window");
      return std::sqrt(integrate(s, w, [](double y) { return y * y; }) /
                       width);
    case MeasureSpec::Stat::kMin:
    case MeasureSpec::Stat::kMax:
    case MeasureSpec::Stat::kPp: {
      double lo = std::min(interp(s, w.lo), interp(s, w.hi));
      double hi = std::max(interp(s, w.lo), interp(s, w.hi));
      for (std::size_t i = 0; i < s.xs.size(); ++i) {
        if (s.xs[i] < w.lo || s.xs[i] > w.hi) continue;
        lo = std::min(lo, s.ys[i]);
        hi = std::max(hi, s.ys[i]);
      }
      if (m.stat == MeasureSpec::Stat::kMin) return lo;
      if (m.stat == MeasureSpec::Stat::kMax) return hi;
      return hi - lo;
    }
  }
  fail("unhandled stat");
}

double eval_one(const MeasureSpec& m, const MeasureInput& input,
                const ParamEnv& env) {
  switch (m.kind) {
    case MeasureSpec::Kind::kTrigTarg: {
      const Series trig = resolve(m.trig.probe, m.analysis, input);
      const Series targ = resolve(m.targ.probe, m.analysis, input);
      const double t0 = nth_crossing(trig, m.trig, "trig");
      const double t1 = nth_crossing(targ, m.targ, "targ");
      return t1 - t0;
    }
    case MeasureSpec::Kind::kStat:
      return eval_stat(m, resolve(m.probe, m.analysis, input));
    case MeasureSpec::Kind::kFindAt:
      return interp(resolve(m.probe, m.analysis, input), m.at);
    case MeasureSpec::Kind::kParam:
      try {
        return eval_expr(m.expr, env);
      } catch (const ExprError& e) {
        fail("in '" + m.expr + "': " + e.what());
      }
  }
  fail("unhandled measure kind");
}

}  // namespace

std::vector<MeasureResult> run_measures(const std::vector<MeasureSpec>& specs,
                                        const MeasureInput& input) {
  std::vector<MeasureResult> results;
  results.reserve(specs.size());
  // param='expr' measures see the deck parameters plus every successful
  // prior result, in card order.
  ParamEnv env;
  if (input.params) {
    for (const auto& [name, value] : *input.params) env.set(name, value);
  }
  for (const MeasureSpec& m : specs) {
    MeasureResult r;
    r.name = m.name;
    try {
      if (!input.circuit) fail("no circuit");
      r.value = eval_one(m, input, env);
      env.set(m.name, *r.value);
    } catch (const MeasureFail& f) {
      r.error = f.reason;
    }
    results.push_back(std::move(r));
  }
  return results;
}

std::string measures_to_csv(const std::vector<MeasureResult>& results) {
  std::string out = "name,value,error\n";
  char buf[64];
  for (const MeasureResult& r : results) {
    out += r.name;
    out += ',';
    if (r.value) {
      std::snprintf(buf, sizeof(buf), "%.17g", *r.value);
      out += buf;
    } else {
      out += "failed";
    }
    out += ',';
    // Errors may contain commas; keep the cell quoted when they do.
    if (r.error.find(',') != std::string::npos) {
      out += '"' + r.error + '"';
    } else {
      out += r.error;
    }
    out += '\n';
  }
  return out;
}

}  // namespace sscl::netlist
