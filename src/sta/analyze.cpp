#include <algorithm>
#include <cmath>
#include <limits>

#include "lint/check.hpp"
#include "sta/sta.hpp"
#include "sta/timing_graph.hpp"
#include "trace/trace.hpp"
#include "util/numeric.hpp"

namespace sscl::sta {

using digital::Gate;
using digital::Netlist;
using digital::SignalId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// x mod m in [0, m), correct for negative x.
double pmod(double x, double m) {
  const double r = std::fmod(x, m);
  return r < 0 ? r + m : r;
}

/// Scratch state of one analysis pass, kept so the fmax search reuses
/// allocations across period probes.
struct Solver {
  const Netlist* nl;
  const TimingGraph* tg;
  const StaOptions* options;
  std::vector<double> arrival;   // per signal: settled (latest) arrival
  std::vector<double> earliest;  // per signal: earliest possible transition
  std::vector<double> window;    // per signal: launch-window open (classic)
  std::vector<int> crit_in;      // per gate: argmax input index
  std::vector<double> open_g, a_in_g, slack_g, required_g;
  std::vector<char> open_limited;
  long long arcs_relaxed = 0;    // gate inputs read, over every solve

  void solve(double period);
  CriticalPath trace(int capture, bool stage_local) const;
};

void Solver::solve(double period) {
  const auto& gates = nl->gates();
  const int n = static_cast<int>(gates.size());
  const int ns = nl->signal_count();
  const double half = period / 2;
  const double tol = 1e-9 * period;
  const bool classic = options->mode == StaMode::kClassic;
  const double t_in =
      options->input_arrival + options->input_arrival_frac * period;

  arrival.assign(ns, t_in);
  earliest.assign(ns, t_in);
  window.assign(ns, t_in);
  crit_in.assign(n, -1);
  open_g.assign(n, 0.0);
  a_in_g.assign(n, 0.0);
  slack_g.assign(n, kInf);
  required_g.assign(n, kInf);
  open_limited.assign(n, 0);

  // On a DAG one topological pass is exact. Latch feedback needs the
  // Bellman-Ford-style repetition: back edges read one-period-old
  // arrivals, which stabilize after at most one pass per latch rank.
  const int passes =
      tg->has_feedback
          ? std::min(64, static_cast<int>(tg->latches.size()) + 2)
          : 1;
  for (int pass = 0; pass < passes; ++pass) {
    bool changed = false;
    for (const int gi : tg->order) {
      const Gate& g = gates[gi];
      const GateTiming& t = tg->gate[gi];
      double a_in = -kInf;
      double e_in = kInf;
      double w_in = -kInf;
      int ci = -1;
      arcs_relaxed += digital::input_count(g.kind);
      for (int i = 0; i < digital::input_count(g.kind); ++i) {
        const SignalId s = g.in[i].sig;
        const int drv = nl->driver_of(s);
        // A driver later in evaluation order is a feedback edge: its
        // data was launched in the previous period.
        const bool back = drv >= 0 && tg->order_pos[drv] > tg->order_pos[gi];
        const double ai = arrival[s] - (back ? period : 0.0);
        if (ai > a_in) {
          a_in = ai;
          ci = i;
        }
        e_in = std::min(e_in, earliest[s] - (back ? period : 0.0));
        w_in = std::max(w_in, window[s] - (back ? period : 0.0));
      }
      crit_in[gi] = ci;
      double a_out;
      double e_out;
      if (!digital::is_latching(g.kind)) {
        a_out = a_in + t.delay;
        e_out = e_in + t.delay;
        window[g.out] = w_in;
      } else if (classic) {
        // First transparency window that can still capture this token:
        // open = phase offset + m*T with the smallest m whose close lies
        // after the launch of the incoming data. Same-phase back-to-back
        // latches share a window (the shoot-through race lint flags).
        double open = g.clock_phase ? 0.0 : half;
        while (open + half <= w_in + tol) open += period;
        open_g[gi] = open;
        a_in_g[gi] = a_in;
        required_g[gi] = open + half;
        slack_g[gi] = open + half - (a_in + t.delay);
        open_limited[gi] = a_in <= open;
        a_out = std::max(a_in, open) + t.delay;
        e_out = a_out;
        window[g.out] = open;
      } else {
        // EventSim capture model. Commit opportunities: the data event
        // maturing at a_in + delay (succeeds when the latch is
        // transparent at that instant) and the clock-edge re-evaluation,
        // whose maturity lands in a transparency window at one fixed
        // position per period. A commit reads its inputs at maturity, so
        // it is clean only between the settle of this token and the
        // first possible transition of the next: [a_in, e_in + T).
        const double o_p = g.clock_phase ? 0.0 : half;
        const double corruption = e_in + period;
        const double cand1 = a_in + t.delay;
        const bool cand1_transparent = pmod(cand1 - o_p, period) < half;
        // Rise- and fall-edge re-evals mature half a period apart, so
        // exactly one of the two positions is transparent.
        double pos = pmod(t.delay, period);  // rise-edge maturity position
        const bool rise_transparent = g.clock_phase ? pos < half : pos >= half;
        if (!rise_transparent) pos = pmod(half + t.delay, period);
        const double cand2 = a_in + pmod(pos - a_in, period);
        const bool valid1 = cand1_transparent && cand1 < corruption - tol;
        const bool valid2 = cand2 < corruption - tol;
        double chosen;
        if (valid1 || valid2) {
          chosen = std::min(valid1 ? cand1 : kInf, valid2 ? cand2 : kInf);
        } else {
          chosen = cand1_transparent ? std::min(cand1, cand2) : cand2;
        }
        a_in_g[gi] = a_in;
        required_g[gi] = corruption;
        slack_g[gi] = corruption - chosen;
        open_limited[gi] = chosen != cand1 || !cand1_transparent;
        a_out = chosen;
        // Earliest output transition: the first input-change commit whose
        // maturity lands in a transparency window replays the input's
        // settling interval from there on; a clock commit positioned
        // inside the settling interval writes mid-transition garbage
        // every period. With neither, the output transitions once at the
        // chosen commit.
        const double m_lo = e_in + t.delay;
        const double m_hi = a_in + t.delay;
        double e_first = kInf;
        const double x = pmod(m_lo - o_p, period);
        if (x < half) {
          e_first = m_lo;
        } else if (m_lo + (period - x) <= m_hi) {
          e_first = m_lo + (period - x);
        }
        const double frac = pmod(pos - e_in, period);
        if (frac < a_in - e_in) e_first = std::min(e_first, e_in + frac);
        e_out = std::min(e_first, chosen);
        open_g[gi] = chosen - pmod(chosen - o_p, period);
        window[g.out] = open_g[gi];
      }
      if (a_out > arrival[g.out] + tol || pass == 0) {
        changed = changed || std::abs(a_out - arrival[g.out]) > tol;
        arrival[g.out] = a_out;
      }
      if (pass == 0 || std::abs(e_out - earliest[g.out]) > tol) {
        changed = changed || std::abs(e_out - earliest[g.out]) > tol;
        earliest[g.out] = e_out;
      }
    }
    if (!changed && pass > 0) break;
  }
}

CriticalPath Solver::trace(int capture, bool stage_local) const {
  const auto& gates = nl->gates();
  CriticalPath path;
  std::vector<char> visited(gates.size(), 0);
  std::vector<PathStep> rsteps;
  int launch_boundary = -1;  // index into rsteps of a launch-latch step
  int cur = capture;
  bool first = true;
  while (cur >= 0 && !visited[cur]) {
    visited[cur] = 1;
    const Gate& g = gates[cur];
    const GateTiming& t = tg->gate[cur];
    PathStep step;
    step.gate = cur;
    step.name = g.name;
    step.fanout = t.fanout;
    step.load_cap = t.load_cap;
    step.delay = t.delay;
    step.arrival = first ? a_in_g[cur] + t.delay : arrival[g.out];
    const bool is_launch =
        !first && digital::is_latching(g.kind) &&
        (stage_local || open_limited[cur]);
    if (is_launch) launch_boundary = static_cast<int>(rsteps.size());
    rsteps.push_back(step);
    if (is_launch) break;
    const int ci = crit_in[cur];
    if (ci < 0) break;
    cur = nl->driver_of(g.in[ci].sig);
    first = false;
  }
  std::reverse(rsteps.begin(), rsteps.end());
  if (launch_boundary >= 0) {
    launch_boundary = static_cast<int>(rsteps.size()) - 1 - launch_boundary;
  }
  path.steps = std::move(rsteps);
  for (int i = 0; i < static_cast<int>(path.steps.size()); ++i) {
    if (i != launch_boundary) path.path_cap += path.steps[i].load_cap;
  }
  path.arrival = a_in_g[capture];
  path.required = required_g[capture];
  path.slack = slack_g[capture];
  return path;
}

TimingReport analyze_graph(const Netlist& nl, const TimingGraph& tg,
                           const stscl::SclModel& model, double iss,
                           double period, const StaOptions& options,
                           Solver& solver) {
  solver.nl = &nl;
  solver.tg = &tg;
  solver.options = &options;
  solver.solve(period);

  const auto& gates = nl.gates();
  const double tol = 1e-9 * period;
  const double fop = 1.0 / period;

  TimingReport report;
  report.period = period;
  report.iss = iss;
  report.max_depth = tg.max_depth;
  report.max_rank = tg.max_rank;
  report.has_feedback = tg.has_feedback;
  report.worst_slack = kInf;

  int worst_gate = -1;
  std::vector<int> stage_worst(tg.max_rank + 1, -1);
  for (const int gi : tg.latches) {
    const Gate& g = gates[gi];
    const GateTiming& t = tg.gate[gi];
    LatchTiming lt;
    lt.gate = gi;
    lt.name = g.name;
    lt.rank = t.rank;
    lt.phase = g.clock_phase;
    lt.depth = t.depth;
    lt.open = solver.open_g[gi];
    lt.close = solver.required_g[gi];
    lt.arrival = solver.a_in_g[gi];
    lt.slack = solver.slack_g[gi];
    report.latches.push_back(lt);
    if (lt.slack < report.worst_slack) {
      report.worst_slack = lt.slack;
      worst_gate = gi;
    }
    int& sw = stage_worst[t.rank];
    if (sw < 0 || solver.slack_g[gi] < solver.slack_g[sw]) sw = gi;
  }
  report.feasible = report.worst_slack >= -tol;
  if (report.latches.empty()) {
    // Purely combinational block: no capture constraint, always
    // feasible; report the deepest cone as the critical path.
    report.worst_slack = 0.0;
    report.feasible = true;
  }

  for (int rank = 1; rank <= tg.max_rank; ++rank) {
    if (stage_worst[rank] < 0) continue;
    const int gi = stage_worst[rank];
    StageTiming st;
    st.rank = rank;
    st.phase = gates[gi].clock_phase;
    st.slack = solver.slack_g[gi];
    st.worst_name = gates[gi].name;
    for (const int li : tg.latches) {
      if (tg.gate[li].rank != rank) continue;
      ++st.latches;
      st.depth = std::max(st.depth, tg.gate[li].depth);
    }
    const CriticalPath sp = solver.trace(gi, /*stage_local=*/true);
    st.path_cap = sp.path_cap;
    st.power_eq1 = model.path_power_for_cap(sp.path_cap, fop, options.vdd);
    report.stages.push_back(st);
    report.dynamic_power += st.power_eq1;
  }
  report.static_power = gates.size() * iss * options.vdd;

  if (worst_gate >= 0) {
    report.critical = solver.trace(worst_gate, /*stage_local=*/false);
    report.critical.power_eq1 =
        model.path_power_for_cap(report.critical.path_cap, fop, options.vdd);
  }
  return report;
}

}  // namespace

double TimingReport::worst_slack_of_phase(bool phase) const {
  double worst = kInf;
  for (const LatchTiming& lt : latches) {
    if (lt.phase == phase) worst = std::min(worst, lt.slack);
  }
  return worst;
}

TimingReport analyze(const Netlist& netlist, const stscl::SclModel& model,
                     double iss, double period, const StaOptions& options) {
  trace::Span span("sta.analyze", "analysis");
  if (period <= 0) throw StaError("sta: period must be positive");
  if (options.lint) lint::enforce_netlist(netlist);
  const TimingGraph tg = build_timing_graph(netlist, model, iss, options);
  Solver solver;
  TimingReport report =
      analyze_graph(netlist, tg, model, iss, period, options, solver);
  trace::set_counter("sta.stages", static_cast<long long>(report.stages.size()));
  trace::set_counter("sta.latches", static_cast<long long>(report.latches.size()));
  return report;
}

double sta_fmax(const Netlist& netlist, const stscl::SclModel& model,
                double iss, const StaOptions& options,
                long long* arcs_relaxed) {
  trace::Span span("sta.fmax", "analysis");
  if (options.lint) lint::enforce_netlist(netlist);
  const TimingGraph tg = build_timing_graph(netlist, model, iss, options);
  if (tg.latches.empty()) {
    throw StaError("sta_fmax: no latches; fmax is unconstrained");
  }
  Solver solver;
  static trace::Counter probes("sta.fmax_probes");
  double best = kInf;  // smallest period actually proven feasible
  auto feasible = [&](double period) {
    trace::Span probe("sta.probe", "analysis");
    probes.add();
    const bool ok =
        analyze_graph(netlist, tg, model, iss, period, options, solver)
            .feasible;
    if (ok) best = std::min(best, period);
    return ok;
  };

  const double td = model.delay(iss);
  double hi = 4.0 * td * std::max(1, tg.max_depth);
  int guard = 0;
  while (!feasible(hi)) {
    hi *= 2.0;
    if (++guard > 40) throw StaError("sta_fmax: no feasible period");
  }
  double lo = hi / 64.0;
  while (feasible(lo)) {
    lo *= 0.5;
    if (++guard > 120) break;
  }
  // Same resolution as measure_encoder_fmax's search, so the two agree
  // to the search tolerance when the models line up. Return the fastest
  // period the search *verified*, so analyze(1 / sta_fmax(...)) is
  // always feasible — in sim-capture mode feasibility need not be
  // monotone and the raw boundary can sit on the failing side.
  util::binary_search_boundary(
      [&](double period) { return !feasible(period); }, lo, hi, 1e-3);
  if (arcs_relaxed) *arcs_relaxed = solver.arcs_relaxed;
  return 1.0 / best;
}

}  // namespace sscl::sta
