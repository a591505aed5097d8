/// perfbench: the repository benchmark (perfbench/README.md).
///
///   perfbench --workload serve_mix|tran_stscl|mc_yield --seed N
///             --seconds S --trace 0|1 [--root DIR] [--work-dir DIR]
///             [--corrupt-reference]
///
/// Runs one workload through the public functions of each layer, checks
/// its outputs and prints one JSON object as the last line of stdout:
/// the end-to-end metrics for --trace 0, the per-layer metrics of a
/// traced run for --trace 1. Progress and diagnostics go to stderr.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_mix|tran_stscl|mc_yield "
               "--seed N --seconds S --trace 0|1 [--root DIR] "
               "[--work-dir DIR] [--corrupt-reference]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::process_seconds();  // start the set-up clock
  perfbench::RunConfig config;
  std::string workload;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value");
        return argv[++i];
      };
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        config.trace = value() != "0";
      } else if (arg == "--root") {
        config.root = value();
      } else if (arg == "--work-dir") {
        config.work_dir = value();
      } else if (arg == "--corrupt-reference") {
        config.corrupt_reference = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (config.seconds <= 0) return usage();
  if (config.work_dir.empty()) {
    config.work_dir = config.root + "/.bench_build/work";
  }

  try {
    std::filesystem::create_directories(config.work_dir);
    perfbench::WorkloadResult result;
    if (workload == "serve_mix") {
      result = perfbench::run_serve_mix(config);
    } else if (workload == "tran_stscl") {
      result = perfbench::run_tran_stscl(config);
    } else if (workload == "mc_yield") {
      result = perfbench::run_mc_yield(config);
    } else {
      return usage();
    }
    std::fprintf(stderr, "perfbench %s: %lld attempted, %lld failed\n%s",
                 workload.c_str(), result.attempted, result.failed,
                 perfbench::metrics_summary(config.trace ? result.per_layer
                                                         : result.end_to_end)
                     .c_str());
    std::printf("%s\n", perfbench::result_json(result, config.trace).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
