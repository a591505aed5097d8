#include "lint/pass.hpp"

#include <algorithm>
#include <cstring>
#include <future>
#include <string>

#include "digital/netlist.hpp"
#include "lint/ir.hpp"
#include "run/thread_pool.hpp"
#include "trace/trace.hpp"

namespace sscl::lint {

PassManager::PassManager(std::vector<std::unique_ptr<Rule>> passes)
    : passes_(std::move(passes)) {}

std::vector<std::vector<int>> PassManager::schedule(
    const std::vector<int>& selected) const {
  const std::size_t passes = passes_.size();
  // Dependency edges restricted to the run set, by pass position in
  // flat arrays: deps[dep_begin[s] .. dep_begin[s + 1]) are the
  // positions selected[s] waits for. A dependency id names the last
  // selected pass with that id; unknown ids are ordering hints about
  // passes that are not running -- ignored.
  std::vector<int> dep_begin(selected.size() + 1, 0);
  std::vector<int> deps;
  for (std::size_t s = 0; s < selected.size(); ++s) {
    const int pi = selected[s];
    for (const char* dep : passes_[pi]->depends_on()) {
      for (auto it = selected.rbegin(); it != selected.rend(); ++it) {
        if (std::strcmp(passes_[*it]->id(), dep) != 0) continue;
        if (*it != pi) deps.push_back(*it);
        break;
      }
    }
    dep_begin[s + 1] = static_cast<int>(deps.size());
  }

  // Longest-path layering: wave(p) = 1 + max(wave(deps)). Passes are
  // visited repeatedly until stable; a dependency cycle (a registry
  // bug) would never stabilise, so cap the sweeps and fall back to one
  // pass per wave in registration order — slower, never wrong.
  std::vector<int> wave_of(passes, 0);
  bool stable = false;
  for (std::size_t sweep = 0; sweep <= selected.size() && !stable; ++sweep) {
    stable = true;
    for (std::size_t s = 0; s < selected.size(); ++s) {
      int w = 0;
      for (int k = dep_begin[s]; k < dep_begin[s + 1]; ++k) {
        w = std::max(w, wave_of[static_cast<std::size_t>(deps[k])] + 1);
      }
      int& wave = wave_of[static_cast<std::size_t>(selected[s])];
      if (wave != w) {
        wave = w;
        stable = false;
      }
    }
  }

  std::vector<std::vector<int>> waves;
  if (!stable) {
    waves.reserve(selected.size());
    for (const int pi : selected) waves.push_back({pi});
    return waves;
  }
  for (const int pi : selected) {
    const int w = wave_of[static_cast<std::size_t>(pi)];
    if (static_cast<int>(waves.size()) <= w) waves.resize(w + 1);
    waves[static_cast<std::size_t>(w)].push_back(pi);
  }
  return waves;
}

namespace {

Report run_one(const Rule& pass, const LintContext& ctx) {
  trace::Span span(pass.id(), "lint.pass");
  Report report;
  try {
    pass.run(ctx, report);
  } catch (const std::exception& e) {
    report.error("pass-failure", pass.id(),
                 std::string("pass threw: ") + e.what());
  } catch (...) {
    report.error("pass-failure", pass.id(), "pass threw a non-exception");
  }
  return report;
}

}  // namespace

Report PassManager::run(const LintContext& ctx,
                        const PassRunOptions& options) const {
  trace::Span span("lint.run", "lint");

  // Stage zero: the shared connectivity IR, built once for every pass,
  // and the per-run fact store passes publish into for their
  // dependents (wave barriers order producer before consumer).
  AnalysisIR ir;
  PassFacts facts;
  LintContext prepared = ctx;
  if (prepared.ir == nullptr) {
    if (ctx.view != nullptr) {
      ir = AnalysisIR::build(*ctx.view);
    } else if (ctx.netlist != nullptr) {
      ir = AnalysisIR::build(*ctx.netlist);
    }
    prepared.ir = &ir;
  }
  if (prepared.facts == nullptr) prepared.facts = &facts;

  std::vector<int> selected;
  for (int pi = 0; pi < static_cast<int>(passes_.size()); ++pi) {
    if (!options.only.empty() &&
        std::find(options.only.begin(), options.only.end(),
                  passes_[pi]->id()) == options.only.end()) {
      continue;
    }
    selected.push_back(pi);
  }

  // Per-pass reports, merged in registration order below: diagnostics
  // are byte-identical at any jobs count.
  std::vector<Report> reports(passes_.size());
  const std::vector<std::vector<int>> waves = schedule(selected);

  int pool_jobs = run::resolve_jobs(options.jobs == 0 ? 0 : options.jobs);
  std::size_t widest = 0;
  for (const auto& wave : waves) widest = std::max(widest, wave.size());
  const bool parallel = pool_jobs > 1 && widest > 1;

  if (parallel) {
    run::ThreadPool pool(
        std::min<int>(pool_jobs, static_cast<int>(widest)));
    for (const auto& wave : waves) {
      std::vector<std::pair<int, std::future<Report>>> running;
      running.reserve(wave.size());
      for (const int pi : wave) {
        const Rule* pass = passes_[pi].get();
        running.emplace_back(pi, pool.submit([pass, &prepared] {
          return run_one(*pass, prepared);
        }));
      }
      for (auto& [pi, future] : running) reports[pi] = future.get();
    }
  } else {
    for (const auto& wave : waves) {
      for (const int pi : wave) {
        reports[pi] = run_one(*passes_[pi], prepared);
      }
    }
  }

  Report all;
  for (const int pi : selected) all.merge(reports[pi]);

  static trace::Counter findings("lint.findings");
  static trace::Counter passes_run("lint.passes_run");
  findings.add(static_cast<long long>(all.diagnostics().size()));
  passes_run.add(static_cast<long long>(selected.size()));
  return all;
}

}  // namespace sscl::lint
