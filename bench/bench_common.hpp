#pragma once

/// \file bench_common.hpp
/// Shared boilerplate for the paper-reproduction benches: each bench is
/// a standalone binary that prints the table/series of one paper figure
/// and drops a CSV next to it for replotting. All benches share one CLI
/// (--jobs/--seed/--csv/--trace/--metrics) and drive their sweeps
/// through run::Sweep, so a bench's numbers are bit-identical at every
/// --jobs value (the determinism contract of docs/RUNNER.md).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "run/sweep.hpp"
#include "run/thread_pool.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace sscl::bench {

inline void banner(const std::string& id, const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s -- %s\n", id.c_str(), title.c_str());
  std::printf("==============================================================\n");
}

inline void footnote(const std::string& text) {
  std::printf("\n%s\n\n", text.c_str());
}

/// Common bench CLI:
///   --jobs N      worker threads for the sweeps (0 = one per core)
///   --seed S      root Monte-Carlo seed (per-instance streams fork off it)
///   --csv P       override the default CSV path ("none" disables CSVs)
///   --trace P     write a Chrome trace-event / Perfetto JSON timeline
///   --metrics P   write the counter/gauge registry (JSON, or CSV if .csv)
struct Args {
  int jobs = 1;
  std::uint64_t seed = 0;
  std::string csv_override;
  bool csv_disabled = false;

  /// Resolve the output path for a CSV this bench would write by
  /// default; empty means "skip the file".
  std::string csv_path(const std::string& default_path) const {
    if (csv_disabled) return {};
    return csv_override.empty() ? default_path : csv_override;
  }

  static Args parse(int argc, char** argv, std::uint64_t default_seed = 2026) {
    Args args;
    args.seed = default_seed;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&](const char* flag) -> const char* {
        if (++i >= argc) {
          std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
          std::exit(2);
        }
        return argv[i];
      };
      if (arg == "--jobs" || arg == "-j") {
        args.jobs = std::atoi(value("--jobs"));
      } else if (arg == "--seed") {
        args.seed = std::strtoull(value("--seed"), nullptr, 0);
      } else if (arg == "--csv") {
        const std::string path = value("--csv");
        if (path == "none") {
          args.csv_disabled = true;
        } else {
          args.csv_override = path;
        }
      } else if (arg == "--trace") {
        trace::enable();
        trace::set_thread_name("main");
        trace::write_at_exit(value("--trace"), {});
      } else if (arg == "--metrics") {
        trace::enable();
        trace::set_thread_name("main");
        trace::write_at_exit({}, value("--metrics"));
      } else if (arg == "--help" || arg == "-h") {
        std::printf(
            "usage: %s [--jobs N] [--seed S] [--csv PATH|none]\n"
            "          [--trace PATH] [--metrics PATH]\n"
            "  --jobs N     worker threads for sweeps (0 = one per core)\n"
            "  --seed S     root Monte-Carlo seed\n"
            "  --csv P      override the default CSV path; 'none' disables\n"
            "  --trace P    write a Perfetto/Chrome trace-event timeline\n"
            "  --metrics P  write counters/gauges (JSON, or CSV for .csv)\n",
            argv[0]);
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n",
                     argv[0], arg.c_str());
        std::exit(2);
      }
    }
    return args;
  }
};

/// Run a sweep on args.jobs threads and print it as a console table +
/// CSV. The task maps (point, index) -> result in parallel (it must
/// derive any randomness from args.seed and its index); `emit` then
/// formats each (point, result) serially, appending cells to the table
/// row it is handed and returning the CSV values for that row (empty =
/// no CSV row). Pass an empty csv_columns to skip the CSV entirely.
template <typename P, typename TaskFn, typename EmitFn>
void sweep_table(const Args& args, const std::vector<std::string>& headers,
                 const std::string& default_csv,
                 const std::vector<std::string>& csv_columns,
                 const std::vector<P>& points, TaskFn&& task, EmitFn&& emit,
                 int jobs_override = -1) {
  run::SweepOptions opts;
  opts.jobs = jobs_override >= 0 ? jobs_override : args.jobs;
  auto result = run::sweep(points, std::forward<TaskFn>(task), opts);

  util::Table table(headers);
  std::optional<util::CsvWriter> csv;
  const std::string path =
      csv_columns.empty() ? std::string() : args.csv_path(default_csv);
  if (!path.empty()) csv.emplace(path, csv_columns);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::vector<double> row =
        emit(table.row(), points[i], result.results[i], i);
    if (csv && !row.empty()) csv->write_row(row);
  }
  std::cout << table;
  std::printf("[run] %zu point(s) on %d job(s) in %.2f s\n", points.size(),
              run::resolve_jobs(opts.jobs), result.wall_seconds);
}

}  // namespace sscl::bench
